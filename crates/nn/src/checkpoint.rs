//! Crash-safe training checkpoints.
//!
//! Training is the expensive leg of the paper's train → convert → simulate
//! pipeline; a crash at epoch 180 of 200 must not cost 180 epochs. This
//! module persists the **full** training state — network parameters *and*
//! optimizer momentum buffers, the shuffle/augment RNG stream, every
//! dropout layer's mask cursor, and the epoch cursor — so an interrupted
//! run restarts **bit-exactly**: N epochs straight and N/2 + resume + N/2
//! produce identical weights at 0 ulp.
//!
//! ## Container format (v3)
//!
//! A checkpoint file is a sectioned little-endian container:
//!
//! ```text
//! magic "TCLK" | version u32 = 3 | section count u32
//! section: tag u8 | payload length u64 | payload CRC32 u32 | payload
//! ```
//!
//! | tag | section  | payload                                              |
//! |-----|----------|------------------------------------------------------|
//! | 1   | META     | config fingerprint u64, completed-epoch cursor u64   |
//! | 2   | NETWORK  | layer count u32, then one tagged record per layer    |
//! | 3   | MOMENTUM | one tensor per parameter, in `visit_params` order    |
//! | 4   | RNG      | the shuffle RNG's four xoshiro256++ state words      |
//! | 5   | REPORT   | per-epoch statistics accumulated so far              |
//!
//! Every section carries its own CRC32 (IEEE), so any single corrupted
//! byte is either detected (CRC/bounds/magic mismatch → structured error)
//! or provably harmless — never a panic, never a silently wrong network.
//!
//! ## Durability
//!
//! [`CheckpointStore::write`] serializes to a `.tmp` sidecar, fsyncs it,
//! and atomically renames it into place, so a crash mid-write can never
//! clobber the previous good snapshot. [`CheckpointStore::load_latest`]
//! walks snapshots newest-first and falls back to the previous one when
//! the newest fails validation.

use crate::error::{NnError, Result};
use crate::io::{
    load_network, read_f32, read_tensor, read_u32, read_u64, read_u8, save_network, take,
    write_f32, write_tensor, write_u32, write_u64, write_u8,
};
use crate::network::Network;
use crate::trainer::{EpochStats, TrainConfig, TrainReport};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use tcl_tensor::SeededRng;

const MAGIC: &[u8; 4] = b"TCLK";
const VERSION: u32 = 3;

const SEC_META: u8 = 1;
const SEC_NETWORK: u8 = 2;
const SEC_MOMENTUM: u8 = 3;
const SEC_RNG: u8 = 4;
const SEC_REPORT: u8 = 5;

fn ckpt_err(detail: impl Into<String>) -> NnError {
    NnError::Checkpoint {
        detail: detail.into(),
    }
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven.

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC32 (IEEE) of a byte slice — the per-section integrity check of the
/// checkpoint container.
///
/// # Examples
///
/// ```
/// // The classic check value for the ASCII string "123456789".
/// assert_eq!(tcl_nn::checkpoint::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    h
}

/// Fingerprint of every [`TrainConfig`] field that affects the *trajectory*
/// of training (batch size, shuffle seed, schedule, optimizer, augment),
/// plus the active SIMD dispatch level.
///
/// The total epoch count and verbosity are deliberately excluded: resuming
/// with a larger `epochs` is how a finished run is extended, and both the
/// shuffle stream and the LR schedule key off the absolute epoch index, so
/// extension stays bit-exact.
///
/// The SIMD level is included because the AVX2 kernels fuse multiply-adds:
/// a run checkpointed under `avx2` and resumed under `scalar` (or on a
/// different host) would silently splice two different float trajectories.
/// `scalar` and `wide` are bitwise identical by construction, so they share
/// one fingerprint component and resume interchangeably.
pub fn config_fingerprint(config: &TrainConfig) -> u64 {
    let simd = match tcl_tensor::simd::current() {
        // One trajectory class: wide is bitwise scalar.
        tcl_tensor::simd::Level::Scalar | tcl_tensor::simd::Level::Wide => "unfused",
        tcl_tensor::simd::Level::Avx2 => "avx2",
    };
    let repr = format!(
        "bs={} seed={} sched={:?} opt={:?} aug={:?} simd={simd}",
        config.batch_size, config.shuffle_seed, config.schedule, config.optimizer, config.augment
    );
    fnv1a(repr.as_bytes())
}

// ---------------------------------------------------------------------------
// The checkpoint payload.

/// A complete training snapshot: everything needed to continue a run
/// bit-exactly from the end of a completed epoch.
#[derive(Debug, Clone)]
pub struct TrainCheckpoint {
    /// Number of fully completed epochs (the resume cursor: training
    /// continues at epoch index `epochs_done`).
    pub epochs_done: usize,
    /// [`config_fingerprint`] of the run that wrote the snapshot.
    pub config_fingerprint: u64,
    /// The network, including parameter values, batch-norm running
    /// statistics, dropout mask cursors, **and** SGD momentum buffers.
    pub network: Network,
    /// Captured state of the shuffle/augment RNG.
    pub rng_state: [u64; 4],
    /// Per-epoch statistics accumulated so far.
    pub report: TrainReport,
}

impl TrainCheckpoint {
    /// Captures a snapshot at the end of a completed epoch.
    pub fn capture(
        net: &Network,
        rng: &SeededRng,
        report: &TrainReport,
        config: &TrainConfig,
        epochs_done: usize,
    ) -> Self {
        TrainCheckpoint {
            epochs_done,
            config_fingerprint: config_fingerprint(config),
            network: net.clone(),
            rng_state: rng.state(),
            report: report.clone(),
        }
    }

    /// Serializes the snapshot into the sectioned v3 container.
    ///
    /// # Errors
    ///
    /// None at present: every section is encoded into memory.
    ///
    /// # Examples
    ///
    /// ```
    /// use tcl_nn::layers::Relu;
    /// use tcl_nn::{Layer, Network, TrainCheckpoint, TrainConfig, TrainReport};
    /// use tcl_tensor::SeededRng;
    ///
    /// let net = Network::new(vec![Layer::Relu(Relu::new())]);
    /// let config = TrainConfig::standard(1, 8, 0.05, &[])?;
    /// let report = TrainReport { epochs: Vec::new() };
    /// let ckpt = TrainCheckpoint::capture(&net, &SeededRng::new(0), &report, &config, 0);
    /// let back = TrainCheckpoint::from_bytes(&ckpt.to_bytes()?)?;
    /// assert_eq!(back.network.len(), 1);
    /// # Ok::<(), tcl_nn::NnError>(())
    /// ```
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        let mut meta = Vec::new();
        write_u64(&mut meta, self.config_fingerprint);
        write_u64(&mut meta, self.epochs_done as u64);

        let mut network = Vec::new();
        save_network(&mut network, &self.network);

        let mut momentum = Vec::new();
        let mut buffers: Vec<tcl_tensor::Tensor> = Vec::new();
        let mut net = self.network.clone();
        net.visit_params(&mut |p| buffers.push(p.momentum.clone()));
        write_u32(&mut momentum, buffers.len() as u32);
        for t in &buffers {
            write_tensor(&mut momentum, t);
        }

        let mut rng = Vec::new();
        for w in self.rng_state {
            write_u64(&mut rng, w);
        }

        let mut report = Vec::new();
        write_u32(&mut report, self.report.epochs.len() as u32);
        for e in &self.report.epochs {
            write_u64(&mut report, e.epoch as u64);
            write_f32(&mut report, e.train_loss);
            write_f32(&mut report, e.train_accuracy);
            write_u8(&mut report, e.eval_accuracy.is_some() as u8);
            write_f32(&mut report, e.eval_accuracy.unwrap_or(0.0));
            write_f32(&mut report, e.learning_rate);
        }

        let sections = [
            (SEC_META, meta),
            (SEC_NETWORK, network),
            (SEC_MOMENTUM, momentum),
            (SEC_RNG, rng),
            (SEC_REPORT, report),
        ];
        let mut out = MAGIC.to_vec();
        write_u32(&mut out, VERSION);
        write_u32(&mut out, sections.len() as u32);
        for (tag, payload) in &sections {
            write_u8(&mut out, *tag);
            write_u64(&mut out, payload.len() as u64);
            write_u32(&mut out, crc32(payload));
            out.extend_from_slice(payload);
        }
        Ok(out)
    }

    /// Parses and validates a v3 container.
    ///
    /// Never panics on malformed input: every defect — truncation, bad
    /// magic, unknown tags, out-of-bounds lengths, CRC mismatches,
    /// duplicate or missing sections — is a structured error.
    ///
    /// # Errors
    ///
    /// See above.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = bytes;
        if take(&mut r, MAGIC.len())? != MAGIC {
            return Err(ckpt_err("bad checkpoint magic"));
        }
        let version = read_u32(&mut r)?;
        if version != VERSION {
            return Err(ckpt_err(format!(
                "unsupported checkpoint version {version}"
            )));
        }
        let count = read_u32(&mut r)? as usize;
        if count > 64 {
            return Err(ckpt_err(format!("implausible section count {count}")));
        }

        let mut meta: Option<(u64, u64)> = None;
        let mut network: Option<Network> = None;
        let mut momentum: Option<Vec<tcl_tensor::Tensor>> = None;
        let mut rng_state: Option<[u64; 4]> = None;
        let mut report: Option<TrainReport> = None;

        for _ in 0..count {
            let tag = read_u8(&mut r)?;
            let len = read_u64(&mut r)? as usize;
            let expected_crc = read_u32(&mut r)?;
            let payload = take(&mut r, len)?;
            let actual_crc = crc32(payload);
            if actual_crc != expected_crc {
                return Err(ckpt_err(format!(
                    "section {tag} CRC mismatch ({actual_crc:08x} != {expected_crc:08x})"
                )));
            }
            let mut p = payload;
            match tag {
                SEC_META => {
                    if meta.is_some() {
                        return Err(ckpt_err("duplicate META section"));
                    }
                    let fingerprint = read_u64(&mut p)?;
                    let epochs_done = read_u64(&mut p)?;
                    meta = Some((fingerprint, epochs_done));
                }
                SEC_NETWORK => {
                    if network.is_some() {
                        return Err(ckpt_err("duplicate NETWORK section"));
                    }
                    network = Some(load_network(&mut p)?);
                }
                SEC_MOMENTUM => {
                    if momentum.is_some() {
                        return Err(ckpt_err("duplicate MOMENTUM section"));
                    }
                    let n = read_u32(&mut p)? as usize;
                    if n > 100_000 {
                        return Err(ckpt_err(format!("implausible parameter count {n}")));
                    }
                    let mut buffers = Vec::with_capacity(n.min(1024));
                    for _ in 0..n {
                        buffers.push(read_tensor(&mut p)?);
                    }
                    momentum = Some(buffers);
                }
                SEC_RNG => {
                    if rng_state.is_some() {
                        return Err(ckpt_err("duplicate RNG section"));
                    }
                    let mut s = [0u64; 4];
                    for w in &mut s {
                        *w = read_u64(&mut p)?;
                    }
                    rng_state = Some(s);
                }
                SEC_REPORT => {
                    if report.is_some() {
                        return Err(ckpt_err("duplicate REPORT section"));
                    }
                    let n = read_u32(&mut p)? as usize;
                    if n > 1_000_000 {
                        return Err(ckpt_err(format!("implausible epoch count {n}")));
                    }
                    let mut epochs = Vec::with_capacity(n.min(4096));
                    for _ in 0..n {
                        let epoch = read_u64(&mut p)? as usize;
                        let train_loss = read_f32(&mut p)?;
                        let train_accuracy = read_f32(&mut p)?;
                        let has_eval = read_u8(&mut p)?;
                        let eval_raw = read_f32(&mut p)?;
                        let learning_rate = read_f32(&mut p)?;
                        let eval_accuracy = match has_eval {
                            0 => None,
                            1 => Some(eval_raw),
                            other => {
                                return Err(ckpt_err(format!("bad eval flag {other}")));
                            }
                        };
                        epochs.push(EpochStats {
                            epoch,
                            train_loss,
                            train_accuracy,
                            eval_accuracy,
                            learning_rate,
                        });
                    }
                    report = Some(TrainReport { epochs });
                }
                other => {
                    return Err(ckpt_err(format!("unknown section tag {other}")));
                }
            }
            if !p.is_empty() {
                return Err(ckpt_err(format!(
                    "section {tag} has {} trailing bytes",
                    p.len()
                )));
            }
        }
        if !r.is_empty() {
            return Err(ckpt_err(format!(
                "{} trailing bytes after sections",
                r.len()
            )));
        }

        let (config_fingerprint, epochs_done) =
            meta.ok_or_else(|| ckpt_err("missing META section"))?;
        let mut network = network.ok_or_else(|| ckpt_err("missing NETWORK section"))?;
        let buffers = momentum.ok_or_else(|| ckpt_err("missing MOMENTUM section"))?;
        let rng_state = rng_state.ok_or_else(|| ckpt_err("missing RNG section"))?;
        let report = report.ok_or_else(|| ckpt_err("missing REPORT section"))?;

        // Install the momentum buffers, validating count and shapes against
        // the deserialized network.
        let mut idx = 0usize;
        let mut mismatch: Option<String> = None;
        network.visit_params(&mut |p| {
            if mismatch.is_some() {
                return;
            }
            match buffers.get(idx) {
                Some(m) if m.shape() == p.value.shape() => {
                    p.momentum = m.clone();
                }
                Some(m) => {
                    mismatch = Some(format!(
                        "momentum buffer {idx} shape {:?} != parameter shape {:?}",
                        m.dims(),
                        p.value.dims()
                    ));
                }
                None => {
                    mismatch = Some(format!("missing momentum buffer {idx}"));
                }
            }
            idx += 1;
        });
        if let Some(detail) = mismatch {
            return Err(ckpt_err(detail));
        }
        if idx != buffers.len() {
            return Err(ckpt_err(format!(
                "{} momentum buffers for {idx} parameters",
                buffers.len()
            )));
        }
        if report.epochs.len() != epochs_done as usize {
            return Err(ckpt_err(format!(
                "report covers {} epochs but cursor says {epochs_done}",
                report.epochs.len()
            )));
        }

        Ok(TrainCheckpoint {
            epochs_done: epochs_done as usize,
            config_fingerprint,
            network,
            rng_state,
            report,
        })
    }
}

// ---------------------------------------------------------------------------
// On-disk store: atomic writes, rotation, newest-valid-first loading.

/// Where and how often training snapshots are taken.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory holding the run's snapshots (created on first write).
    pub dir: PathBuf,
    /// Snapshot every `every` completed epochs (a final snapshot is always
    /// written when the run completes). Must be nonzero.
    pub every: usize,
    /// How many snapshots to retain; older ones are pruned. At least 2, so
    /// a corrupted newest snapshot always has a fallback.
    pub keep: usize,
}

impl CheckpointConfig {
    /// Snapshots into `dir` every `TCL_CKPT_EVERY` epochs (default 5),
    /// keeping the 2 most recent.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            dir: dir.into(),
            every: every_from_env(),
            keep: 2,
        }
    }

    /// Overrides the snapshot interval.
    ///
    /// # Panics
    ///
    /// Panics if `every == 0`.
    pub fn with_every(mut self, every: usize) -> Self {
        assert!(every > 0, "checkpoint interval must be nonzero");
        self.every = every;
        self
    }

    /// Overrides the retention count (clamped to at least 2).
    pub fn with_keep(mut self, keep: usize) -> Self {
        self.keep = keep.max(2);
        self
    }
}

/// Reads `TCL_CKPT_EVERY` (default 5; invalid or zero values fall back to
/// the default).
pub fn every_from_env() -> usize {
    std::env::var("TCL_CKPT_EVERY")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&v| v > 0)
        .unwrap_or(5)
}

/// A directory of rotating snapshots for one training run.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    keep: usize,
}

impl CheckpointStore {
    /// Opens (without touching the filesystem) the store at `config.dir`.
    pub fn new(config: &CheckpointConfig) -> Self {
        CheckpointStore {
            dir: config.dir.clone(),
            keep: config.keep.max(2),
        }
    }

    /// The snapshot path for a given epoch cursor.
    pub fn path_for(&self, epochs_done: usize) -> PathBuf {
        self.dir.join(format!("ckpt-{epochs_done:06}.tclk"))
    }

    /// Writes a snapshot atomically: serialize to `<final>.tmp`, fsync,
    /// rename into place, then prune beyond the retention count. Emits
    /// `ckpt.write_ms` / `ckpt.bytes` / `ckpt.writes` through telemetry.
    ///
    /// # Errors
    ///
    /// Returns a checkpoint error on serialization or I/O failure; a failed
    /// write never corrupts existing snapshots.
    pub fn write(&self, ckpt: &TrainCheckpoint) -> Result<PathBuf> {
        // lint: allow(D1) wall time feeds only the gated ckpt.write_ms
        // gauge; checkpoint bytes are a pure function of trainer state
        let start = std::time::Instant::now();
        let bytes = ckpt.to_bytes()?;
        fs::create_dir_all(&self.dir)
            .map_err(|e| ckpt_err(format!("create {}: {e}", self.dir.display())))?;
        let path = self.path_for(ckpt.epochs_done);
        let tmp = path.with_extension("tclk.tmp");
        {
            let mut f = fs::File::create(&tmp)
                .map_err(|e| ckpt_err(format!("create {}: {e}", tmp.display())))?;
            f.write_all(&bytes)
                .map_err(|e| ckpt_err(format!("write {}: {e}", tmp.display())))?;
            f.sync_all()
                .map_err(|e| ckpt_err(format!("fsync {}: {e}", tmp.display())))?;
        }
        fs::rename(&tmp, &path).map_err(|e| {
            ckpt_err(format!(
                "rename {} -> {}: {e}",
                tmp.display(),
                path.display()
            ))
        })?;
        self.prune();
        if tcl_telemetry::metrics_enabled() {
            tcl_telemetry::counter_add("ckpt.writes", 1);
            tcl_telemetry::counter_add("ckpt.bytes", bytes.len() as u64);
            tcl_telemetry::gauge_set("ckpt.write_ms", start.elapsed().as_secs_f64() * 1e3);
        }
        tcl_telemetry::log(
            "ckpt",
            &format!(
                "wrote {} ({} bytes, epoch {})",
                path.display(),
                bytes.len(),
                ckpt.epochs_done
            ),
        );
        Ok(path)
    }

    /// All snapshots in the store, sorted by epoch cursor ascending.
    pub fn list(&self) -> Vec<(usize, PathBuf)> {
        let mut out = Vec::new();
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return out;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let Some(epoch) = name
                .strip_prefix("ckpt-")
                .and_then(|rest| rest.strip_suffix(".tclk"))
                .and_then(|digits| digits.parse::<usize>().ok())
            else {
                continue;
            };
            out.push((epoch, path));
        }
        out.sort_by_key(|(epoch, _)| *epoch);
        out
    }

    /// Loads the newest snapshot that parses and passes every CRC, walking
    /// backwards through older snapshots when newer ones are corrupt.
    /// Returns `None` when the store holds no valid snapshot at all.
    ///
    /// This is the crash-recovery entry point, so it never propagates a
    /// corruption error — a bad file is logged and skipped.
    pub fn load_latest(&self) -> Option<TrainCheckpoint> {
        for (epoch, path) in self.list().into_iter().rev() {
            match fs::read(&path)
                .map_err(|e| ckpt_err(format!("read {}: {e}", path.display())))
                .and_then(|bytes| TrainCheckpoint::from_bytes(&bytes))
            {
                Ok(ckpt) => {
                    if ckpt.epochs_done != epoch {
                        tcl_telemetry::log(
                            "ckpt",
                            &format!(
                                "{}: cursor {} disagrees with filename; skipping",
                                path.display(),
                                ckpt.epochs_done
                            ),
                        );
                        continue;
                    }
                    return Some(ckpt);
                }
                Err(e) => {
                    if tcl_telemetry::metrics_enabled() {
                        tcl_telemetry::counter_add("ckpt.fallbacks", 1);
                    }
                    tcl_telemetry::log(
                        "ckpt",
                        &format!("{} invalid ({e}); trying older snapshot", path.display()),
                    );
                }
            }
        }
        None
    }

    fn prune(&self) {
        let snapshots = self.list();
        if snapshots.len() <= self.keep {
            return;
        }
        for (_, path) in &snapshots[..snapshots.len() - self.keep] {
            // Pruning is best-effort; a leftover snapshot is harmless.
            let _ = fs::remove_file(path);
        }
    }
}

/// Deletes every snapshot (and the directory, if then empty), so the next
/// run on this store trains from scratch.
pub fn clear_store(dir: &Path) {
    let store = CheckpointStore {
        dir: dir.to_path_buf(),
        keep: 2,
    };
    for (_, path) in store.list() {
        let _ = fs::remove_file(path);
    }
    let _ = fs::remove_dir(dir);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;
    use crate::layers::{Clip, Dropout, Linear, Relu};
    use crate::Mode;
    use tcl_tensor::{SeededRng, Tensor};

    fn sample_net() -> Network {
        let mut rng = SeededRng::new(3);
        let mut net = Network::new(vec![
            Layer::Linear(Linear::new(4, 8, true, &mut rng).unwrap()),
            Layer::Relu(Relu::new()),
            Layer::Clip(Clip::new(2.0)),
            Layer::Dropout(Dropout::new(0.25, 99).unwrap()),
            Layer::Linear(Linear::new(8, 3, true, &mut rng).unwrap()),
        ]);
        // Give the momentum buffers non-trivial content.
        net.visit_params(&mut |p| {
            for (i, m) in p.momentum.data_mut().iter_mut().enumerate() {
                *m = (i as f32).sin();
            }
        });
        // Advance the dropout cursor.
        let x = Tensor::ones([2, 4]);
        net.forward(&x, Mode::Train).unwrap();
        net
    }

    fn sample_ckpt() -> TrainCheckpoint {
        let net = sample_net();
        let mut rng = SeededRng::new(1234);
        rng.uniform(0.0, 1.0);
        let report = TrainReport {
            epochs: vec![EpochStats {
                epoch: 0,
                train_loss: 0.7,
                train_accuracy: 0.5,
                eval_accuracy: Some(0.45),
                learning_rate: 0.05,
            }],
        };
        let config = crate::TrainConfig::standard(4, 2, 0.05, &[2]).unwrap();
        TrainCheckpoint::capture(&net, &rng, &report, &config, 1)
    }

    #[test]
    fn crc32_matches_reference_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn fingerprint_separates_fused_from_unfused_simd_trajectories() {
        use tcl_tensor::simd::{with_level, Level};
        let config = crate::TrainConfig::standard(4, 2, 0.05, &[2]).unwrap();
        let scalar = with_level(Level::Scalar, || config_fingerprint(&config));
        // Wide is bitwise scalar, so resuming across the pair is sound.
        let wide = with_level(Level::Wide, || config_fingerprint(&config));
        assert_eq!(scalar, wide);
        // A fused-FMA trajectory must refuse to resume an unfused one.
        if Level::Avx2.is_available() {
            let avx2 = with_level(Level::Avx2, || config_fingerprint(&config));
            assert_ne!(scalar, avx2);
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let ckpt = sample_ckpt();
        let bytes = ckpt.to_bytes().unwrap();
        let back = TrainCheckpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back.epochs_done, 1);
        assert_eq!(back.config_fingerprint, ckpt.config_fingerprint);
        assert_eq!(back.rng_state, ckpt.rng_state);
        assert_eq!(back.report.epochs.len(), 1);
        assert_eq!(back.report.epochs[0].eval_accuracy, Some(0.45));
        // Momentum buffers survive bitwise.
        let mut orig = ckpt.network.clone();
        let mut rest = back.network.clone();
        let mut orig_mom = Vec::new();
        orig.visit_params(&mut |p| orig_mom.push(p.momentum.clone()));
        let mut i = 0;
        rest.visit_params(&mut |p| {
            let a: Vec<u32> = orig_mom[i].data().iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = p.momentum.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "momentum buffer {i}");
            i += 1;
        });
        // Dropout cursor survives.
        if let Layer::Dropout(d) = &back.network.layers()[3] {
            assert_eq!(d.calls(), 1);
            assert_eq!(d.seed(), 99);
        } else {
            panic!("expected dropout");
        }
        // Serialization is deterministic (needed by the corruption proptest).
        assert_eq!(bytes, back.to_bytes().unwrap());
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sample_ckpt().to_bytes().unwrap();
        for cut in [0, 3, 11, bytes.len() / 2, bytes.len() - 1] {
            let err = TrainCheckpoint::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, NnError::Checkpoint { .. } | NnError::Graph { .. }),
                "unexpected error {err}"
            );
        }
    }

    #[test]
    fn payload_corruption_fails_crc() {
        let mut bytes = sample_ckpt().to_bytes().unwrap();
        // Flip a byte deep inside the network section's payload.
        let target = bytes.len() / 2;
        bytes[target] ^= 0xFF;
        let err = TrainCheckpoint::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("CRC") || err.to_string().contains("checkpoint"));
    }

    #[test]
    fn store_writes_atomically_and_falls_back() {
        let dir = std::env::temp_dir().join(format!("tcl-ckpt-test-{}", std::process::id()));
        clear_store(&dir);
        let config = CheckpointConfig::new(&dir).with_every(1).with_keep(2);
        let store = CheckpointStore::new(&config);

        let mut ckpt = sample_ckpt();
        store.write(&ckpt).unwrap();
        ckpt.epochs_done = 2;
        ckpt.report.epochs.push(EpochStats {
            epoch: 1,
            train_loss: 0.5,
            train_accuracy: 0.6,
            eval_accuracy: None,
            learning_rate: 0.05,
        });
        let newest = store.write(&ckpt).unwrap();
        assert_eq!(store.list().len(), 2);
        // No sidecar left behind.
        assert!(!newest.with_extension("tclk.tmp").exists());

        // Newest wins while valid…
        assert_eq!(store.load_latest().unwrap().epochs_done, 2);

        // …and a corrupted newest falls back to the previous snapshot.
        let mut bytes = fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x55;
        fs::write(&newest, &bytes).unwrap();
        let fallback = store.load_latest().unwrap();
        assert_eq!(fallback.epochs_done, 1);

        // Truncated-to-garbage newest also falls back, never panics.
        fs::write(&newest, b"TCLK").unwrap();
        assert_eq!(store.load_latest().unwrap().epochs_done, 1);

        clear_store(&dir);
    }

    #[test]
    fn retention_prunes_oldest() {
        let dir = std::env::temp_dir().join(format!("tcl-ckpt-prune-{}", std::process::id()));
        clear_store(&dir);
        let config = CheckpointConfig::new(&dir).with_every(1).with_keep(2);
        let store = CheckpointStore::new(&config);
        let mut ckpt = sample_ckpt();
        for cursor in 1..=4 {
            ckpt.epochs_done = cursor;
            ckpt.report.epochs = (0..cursor)
                .map(|e| EpochStats {
                    epoch: e,
                    train_loss: 0.5,
                    train_accuracy: 0.5,
                    eval_accuracy: None,
                    learning_rate: 0.05,
                })
                .collect();
            store.write(&ckpt).unwrap();
        }
        let kept: Vec<usize> = store.list().into_iter().map(|(e, _)| e).collect();
        assert_eq!(kept, vec![3, 4]);
        clear_store(&dir);
    }

    #[test]
    fn fingerprint_tracks_trajectory_fields_only() {
        let base = crate::TrainConfig::standard(10, 32, 0.05, &[5]).unwrap();
        let mut more_epochs = base.clone();
        more_epochs.epochs = 20;
        more_epochs.verbose = true;
        assert_eq!(config_fingerprint(&base), config_fingerprint(&more_epochs));
        let mut other_seed = base.clone();
        other_seed.shuffle_seed = 7;
        assert_ne!(config_fingerprint(&base), config_fingerprint(&other_seed));
        let mut other_batch = base.clone();
        other_batch.batch_size = 16;
        assert_ne!(config_fingerprint(&base), config_fingerprint(&other_batch));
    }
}
