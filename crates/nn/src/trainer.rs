//! Mini-batch training loop.

use crate::augment::{augment_batch, AugmentConfig};
use crate::checkpoint::{config_fingerprint, CheckpointConfig, CheckpointStore, TrainCheckpoint};
use crate::error::{NnError, Result};
use crate::layer::Mode;
use crate::loss::softmax_cross_entropy;
use crate::network::Network;
use crate::optim::{Sgd, StepSchedule};
use serde::{Deserialize, Serialize};
use tcl_tensor::{ops, par, SeededRng, Shape, Tensor};

/// Configuration for [`train`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning-rate schedule.
    pub schedule: StepSchedule,
    /// Optimizer template (its learning rate is overwritten per epoch from
    /// the schedule).
    pub optimizer: Sgd,
    /// Seed for epoch shuffles.
    pub shuffle_seed: u64,
    /// Print one line per epoch to stdout.
    pub verbose: bool,
    /// Optional train-time image augmentation (rank-4 inputs only).
    pub augment: Option<AugmentConfig>,
}

impl TrainConfig {
    /// A sensible default configuration mirroring the paper's recipe scaled
    /// down: SGD momentum 0.9, weight decay 5e-4, step decay 0.1.
    ///
    /// # Errors
    ///
    /// Returns a training error for invalid schedule arguments.
    pub fn standard(
        epochs: usize,
        batch_size: usize,
        lr: f32,
        milestones: &[usize],
    ) -> Result<Self> {
        Ok(TrainConfig {
            epochs,
            batch_size,
            schedule: StepSchedule::new(lr, milestones, 0.1)?,
            optimizer: Sgd::new(lr).with_momentum(0.9).with_weight_decay(5e-4),
            shuffle_seed: 0x7C31,
            verbose: false,
            augment: None,
        })
    }
}

/// Per-epoch statistics recorded by [`train`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss over the epoch.
    pub train_loss: f32,
    /// Training accuracy over the epoch (computed on the fly).
    pub train_accuracy: f32,
    /// Held-out accuracy, when evaluation data was supplied.
    pub eval_accuracy: Option<f32>,
    /// Learning rate in effect.
    pub learning_rate: f32,
}

/// Summary of a full training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainReport {
    /// Per-epoch statistics, in order.
    pub epochs: Vec<EpochStats>,
}

impl TrainReport {
    /// Final held-out accuracy, if evaluation data was supplied.
    pub fn final_eval_accuracy(&self) -> Option<f32> {
        self.epochs.last().and_then(|e| e.eval_accuracy)
    }

    /// Final training accuracy.
    pub fn final_train_accuracy(&self) -> f32 {
        self.epochs.last().map_or(0.0, |e| e.train_accuracy)
    }

    /// Best held-out accuracy across epochs.
    pub fn best_eval_accuracy(&self) -> Option<f32> {
        self.epochs
            .iter()
            .filter_map(|e| e.eval_accuracy)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f32| a.max(v))))
    }
}

/// Gathers the rows of `data` (along the first dimension) selected by
/// `indices` into a new tensor.
///
/// Works for any rank ≥ 1; used for mini-batch extraction.
///
/// # Errors
///
/// Returns an error if `data` is rank 0 or any index is out of bounds.
pub fn select_rows(data: &Tensor, indices: &[usize]) -> Result<Tensor> {
    let dims = data.dims();
    if dims.is_empty() {
        return Err(NnError::Training {
            detail: "cannot batch a rank-0 tensor".into(),
        });
    }
    let n = dims[0];
    let row = data.len() / n.max(1);
    let mut out_dims = dims.to_vec();
    out_dims[0] = indices.len();
    let mut out = Vec::with_capacity(indices.len() * row);
    for &i in indices {
        if i >= n {
            return Err(NnError::Training {
                detail: format!("batch index {i} out of bounds for {n} rows"),
            });
        }
        out.extend_from_slice(&data.data()[i * row..(i + 1) * row]);
    }
    Ok(Tensor::from_vec(Shape::new(out_dims), out)?)
}

/// Forward-passes one evaluation mini-batch, returning its correct count.
fn eval_batch(
    net: &mut Network,
    inputs: &Tensor,
    labels: &[usize],
    start: usize,
    end: usize,
) -> Result<usize> {
    let idx: Vec<usize> = (start..end).collect();
    let x = select_rows(inputs, &idx)?;
    let logits = net.forward(&x, Mode::Eval)?;
    let preds = ops::argmax_rows(&logits)?;
    Ok(preds
        .iter()
        .zip(&labels[start..end])
        .filter(|(p, l)| p == l)
        .count())
}

/// Evaluates classification accuracy of `net` on `(inputs, labels)` in
/// mini-batches of `batch_size` (evaluation mode, no caching).
///
/// Evaluation batches are independent forward passes, so they run in
/// parallel: each worker thread evaluates a contiguous range of batches on
/// its own clone of the network and the correct counts are summed in batch
/// order. The accuracy is identical for every thread count; `TCL_THREADS=1`
/// forces serial execution.
///
/// # Errors
///
/// Returns an error for empty data, mismatched lengths, or layer failures
/// (the earliest failing batch's error with multiple failures).
pub fn evaluate(
    net: &Network,
    inputs: &Tensor,
    labels: &[usize],
    batch_size: usize,
) -> Result<f32> {
    let n = inputs.dims().first().copied().unwrap_or(0);
    if n == 0 || labels.len() != n {
        return Err(NnError::Training {
            detail: format!("evaluate: {n} inputs vs {} labels", labels.len()),
        });
    }
    if batch_size == 0 {
        return Err(NnError::Training {
            detail: "batch size must be nonzero".into(),
        });
    }
    let batch_count = n.div_ceil(batch_size);
    let mut slots: Vec<Option<Result<usize>>> = Vec::with_capacity(batch_count);
    slots.resize_with(batch_count, || None);
    par::par_items_mut(par::current(), &mut slots, 1, 1, 1, |first, run| {
        // One clone per worker run; Mode::Eval forward passes still update
        // per-layer scratch, so each worker needs its own network.
        let mut worker_net = net.clone();
        for (offset, slot) in run.iter_mut().enumerate() {
            let start = (first + offset) * batch_size;
            let end = (start + batch_size).min(n);
            *slot = Some(eval_batch(&mut worker_net, inputs, labels, start, end));
        }
    });
    let mut correct = 0usize;
    for slot in slots {
        // lint: allow(P1) par_items_mut visits every slot exactly once
        correct += slot.expect("evaluate: every batch slot filled")?;
    }
    Ok(correct as f32 / n as f32)
}

/// Validates `(inputs, labels, config)` and returns the row count.
fn validate_train_args(inputs: &Tensor, labels: &[usize], config: &TrainConfig) -> Result<usize> {
    let n = inputs.dims().first().copied().unwrap_or(0);
    if n == 0 || labels.len() != n {
        return Err(NnError::Training {
            detail: format!("train: {n} inputs vs {} labels", labels.len()),
        });
    }
    if config.batch_size == 0 || config.epochs == 0 {
        return Err(NnError::Training {
            detail: "epochs and batch size must be nonzero".into(),
        });
    }
    Ok(n)
}

/// Runs one training epoch (shuffle, mini-batch SGD, optional eval) and
/// appends its statistics to `report`.
#[allow(clippy::too_many_arguments)] // one argument per piece of loop state
fn run_epoch(
    net: &mut Network,
    inputs: &Tensor,
    labels: &[usize],
    eval: Option<(&Tensor, &[usize])>,
    config: &TrainConfig,
    optimizer: &mut Sgd,
    rng: &mut SeededRng,
    report: &mut TrainReport,
    epoch: usize,
) -> Result<()> {
    let n = labels.len();
    let _span = tcl_telemetry::span_with("train.epoch", || vec![("epoch", epoch as f64)]);
    // lint: allow(D1) wall time feeds only the gated train.epochs_per_sec
    // heartbeat gauge; training math never depends on it
    let epoch_start = std::time::Instant::now();
    let lr = config.schedule.rate_at(epoch);
    optimizer.set_learning_rate(lr);
    let perm = rng.permutation(n);
    let mut epoch_loss = 0.0f64;
    let mut correct = 0usize;
    let mut batches = 0usize;
    for chunk in perm.chunks(config.batch_size) {
        let mut x = select_rows(inputs, chunk)?;
        if let Some(aug) = &config.augment {
            x = augment_batch(&x, aug, rng)?;
        }
        let y: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();
        net.zero_grad();
        let logits = net.forward(&x, Mode::Train)?;
        let out = softmax_cross_entropy(&logits, &y)?;
        net.backward(&out.grad)?;
        optimizer.step(net);
        epoch_loss += out.loss as f64;
        batches += 1;
        let preds = ops::argmax_rows(&logits)?;
        correct += preds.iter().zip(&y).filter(|(p, l)| p == l).count();
    }
    let train_loss = (epoch_loss / batches.max(1) as f64) as f32;
    let train_accuracy = correct as f32 / n as f32;
    let eval_accuracy = match eval {
        Some((ex, ey)) => Some(evaluate(net, ex, ey, config.batch_size)?),
        None => None,
    };
    if tcl_telemetry::metrics_enabled() {
        tcl_telemetry::gauge_set("train.loss", f64::from(train_loss));
        tcl_telemetry::gauge_set("train.accuracy", f64::from(train_accuracy));
        if let Some(ea) = eval_accuracy {
            tcl_telemetry::gauge_set("train.eval_accuracy", f64::from(ea));
        }
        // Heartbeat for the live exporter (`TCL_OBS_ADDR`): how fast
        // training is moving right now, refreshed once per epoch.
        let elapsed = epoch_start.elapsed().as_secs_f64();
        if elapsed > 0.0 {
            tcl_telemetry::gauge_set("train.epochs_per_sec", 1.0 / elapsed);
        }
    }
    if config.verbose {
        let line = match eval_accuracy {
            Some(ea) => format!(
                "epoch {epoch:3}  lr {lr:.4}  loss {train_loss:.4}  train-acc {train_accuracy:.4}  eval-acc {ea:.4}"
            ),
            None => format!(
                "epoch {epoch:3}  lr {lr:.4}  loss {train_loss:.4}  train-acc {train_accuracy:.4}"
            ),
        };
        tcl_telemetry::log("trainer", &line);
    }
    report.epochs.push(EpochStats {
        epoch,
        train_loss,
        train_accuracy,
        eval_accuracy,
        learning_rate: lr,
    });
    Ok(())
}

/// Trains `net` on `(inputs, labels)` with softmax cross-entropy.
///
/// When `eval` is supplied, held-out accuracy is computed after every epoch
/// and recorded in the report.
///
/// This is the one-shot entry point; [`Trainer::run_resumable`] adds
/// crash-safe checkpointing on top of the identical epoch loop, so the two
/// produce bit-identical networks for the same configuration.
///
/// # Errors
///
/// Returns an error for empty/mismatched data or layer failures.
pub fn train(
    net: &mut Network,
    inputs: &Tensor,
    labels: &[usize],
    eval: Option<(&Tensor, &[usize])>,
    config: &TrainConfig,
) -> Result<TrainReport> {
    Trainer::new(config.clone()).run(net, inputs, labels, eval)
}

/// Training driver that owns the epoch loop and, optionally, crash-safe
/// checkpointing.
///
/// Without a [`CheckpointConfig`] it behaves exactly like [`train`]. With
/// one, [`Trainer::run_resumable`] snapshots full training state every
/// `every` epochs and transparently restarts from the newest valid snapshot
/// when re-invoked — bit-exactly: `N` epochs straight and `N/2` epochs +
/// crash + resume produce identical weights.
///
/// # Examples
///
/// ```no_run
/// use tcl_nn::{CheckpointConfig, TrainConfig, Trainer};
///
/// let config = TrainConfig::standard(20, 32, 0.05, &[10])?;
/// let trainer = Trainer::new(config)
///     .with_checkpoints(CheckpointConfig::new("run.ckpt").with_every(5));
/// # let _ = trainer;
/// # Ok::<(), tcl_nn::NnError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
    checkpoint: Option<CheckpointConfig>,
}

impl Trainer {
    /// Creates a driver for `config` with checkpointing disabled.
    pub fn new(config: TrainConfig) -> Self {
        Trainer {
            config,
            checkpoint: None,
        }
    }

    /// Enables crash-safe checkpointing into `checkpoint.dir`.
    pub fn with_checkpoints(mut self, checkpoint: CheckpointConfig) -> Self {
        self.checkpoint = Some(checkpoint);
        self
    }

    /// The training configuration this driver runs.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Trains start-to-finish without reading or writing checkpoints.
    ///
    /// # Errors
    ///
    /// Returns an error for empty/mismatched data or layer failures.
    pub fn run(
        &self,
        net: &mut Network,
        inputs: &Tensor,
        labels: &[usize],
        eval: Option<(&Tensor, &[usize])>,
    ) -> Result<TrainReport> {
        validate_train_args(inputs, labels, &self.config)?;
        let mut rng = SeededRng::new(self.config.shuffle_seed);
        let mut optimizer = self.config.optimizer.clone();
        let mut report = TrainReport { epochs: Vec::new() };
        for epoch in 0..self.config.epochs {
            run_epoch(
                net,
                inputs,
                labels,
                eval,
                &self.config,
                &mut optimizer,
                &mut rng,
                &mut report,
                epoch,
            )?;
        }
        Ok(report)
    }

    /// Trains with crash-safe checkpointing: resumes from the newest valid
    /// snapshot in the checkpoint directory (falling back to older ones if
    /// the newest is corrupt) and snapshots every `every` completed epochs
    /// plus once at completion.
    ///
    /// Resume is **bit-exact**: parameters, momentum buffers, the shuffle
    /// RNG stream, and dropout mask cursors are all restored, so the run
    /// continues on the identical trajectory. Telemetry counters
    /// `ckpt.resumes`, `ckpt.writes`, `ckpt.bytes` and gauge
    /// `ckpt.write_ms` track checkpoint activity.
    ///
    /// Calling without a [`CheckpointConfig`] degrades to [`Trainer::run`].
    ///
    /// # Errors
    ///
    /// Returns an error for invalid data, layer failures, checkpoint I/O
    /// failures, or a snapshot whose configuration fingerprint does not
    /// match `config` (training with different hyper-parameters must not
    /// silently continue someone else's run).
    pub fn run_resumable(
        &self,
        net: &mut Network,
        inputs: &Tensor,
        labels: &[usize],
        eval: Option<(&Tensor, &[usize])>,
    ) -> Result<TrainReport> {
        let Some(ckpt_config) = &self.checkpoint else {
            return self.run(net, inputs, labels, eval);
        };
        validate_train_args(inputs, labels, &self.config)?;
        let store = CheckpointStore::new(ckpt_config);
        let fingerprint = config_fingerprint(&self.config);

        let mut rng = SeededRng::new(self.config.shuffle_seed);
        let mut optimizer = self.config.optimizer.clone();
        let mut report = TrainReport { epochs: Vec::new() };
        let mut start_epoch = 0usize;

        if let Some(snapshot) = store.load_latest() {
            if snapshot.config_fingerprint != fingerprint {
                return Err(NnError::Checkpoint {
                    detail: format!(
                        "checkpoint in {} was written by a run with different \
                         hyper-parameters (fingerprint {:016x} != {:016x}); \
                         refusing to resume",
                        ckpt_config.dir.display(),
                        snapshot.config_fingerprint,
                        fingerprint
                    ),
                });
            }
            *net = snapshot.network;
            rng = SeededRng::from_state(snapshot.rng_state);
            report = snapshot.report;
            start_epoch = snapshot.epochs_done;
            if tcl_telemetry::metrics_enabled() {
                tcl_telemetry::counter_add("ckpt.resumes", 1);
            }
            tcl_telemetry::log(
                "ckpt",
                &format!(
                    "resuming from {} at epoch {start_epoch}/{}",
                    ckpt_config.dir.display(),
                    self.config.epochs
                ),
            );
        }

        for epoch in start_epoch..self.config.epochs {
            run_epoch(
                net,
                inputs,
                labels,
                eval,
                &self.config,
                &mut optimizer,
                &mut rng,
                &mut report,
                epoch,
            )?;
            let done = epoch + 1;
            if done % ckpt_config.every == 0 || done == self.config.epochs {
                let snapshot = TrainCheckpoint::capture(net, &rng, &report, &self.config, done);
                store.write(&snapshot)?;
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;
    use crate::layers::{Clip, Linear, Relu};

    fn blob_data(seed: u64, n_per_class: usize) -> (Tensor, Vec<usize>) {
        // Two Gaussian blobs in 2-D.
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

    fn mlp(seed: u64) -> Network {
        let mut rng = SeededRng::new(seed);
        Network::new(vec![
            Layer::Linear(Linear::new(2, 16, true, &mut rng).unwrap()),
            Layer::Relu(Relu::new()),
            Layer::Clip(Clip::new(2.0)),
            Layer::Linear(Linear::new(16, 2, true, &mut rng).unwrap()),
        ])
    }

    #[test]
    fn training_solves_linearly_separable_blobs() {
        let (x, y) = blob_data(0, 40);
        let (ex, ey) = blob_data(1, 20);
        let mut net = mlp(2);
        let cfg = TrainConfig::standard(15, 16, 0.05, &[10]).unwrap();
        let report = train(&mut net, &x, &y, Some((&ex, &ey)), &cfg).unwrap();
        let acc = report.final_eval_accuracy().unwrap();
        assert!(acc > 0.95, "eval accuracy {acc}");
        assert_eq!(report.epochs.len(), 15);
    }

    #[test]
    fn select_rows_gathers_in_order() {
        let t = Tensor::from_fn([4, 3], |i| i as f32);
        let s = select_rows(&t, &[2, 0]).unwrap();
        assert_eq!(s.dims(), &[2, 3]);
        assert_eq!(s.data(), &[6.0, 7.0, 8.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn select_rows_validates_indices() {
        let t = Tensor::zeros([2, 2]);
        assert!(select_rows(&t, &[5]).is_err());
    }

    #[test]
    fn select_rows_works_on_rank_4() {
        let t = Tensor::from_fn([3, 2, 2, 2], |i| i as f32);
        let s = select_rows(&t, &[1]).unwrap();
        assert_eq!(s.dims(), &[1, 2, 2, 2]);
        assert_eq!(s.at(0), 8.0);
    }

    #[test]
    fn evaluate_validates_inputs() {
        let net = mlp(3);
        let x = Tensor::zeros([2, 2]);
        assert!(evaluate(&net, &x, &[0], 4).is_err());
        assert!(evaluate(&net, &x, &[0, 1], 0).is_err());
    }

    #[test]
    fn train_validates_config() {
        let (x, y) = blob_data(0, 4);
        let mut net = mlp(4);
        let mut cfg = TrainConfig::standard(0, 4, 0.1, &[]).unwrap();
        assert!(train(&mut net, &x, &y, None, &cfg).is_err());
        cfg.epochs = 1;
        cfg.batch_size = 0;
        assert!(train(&mut net, &x, &y, None, &cfg).is_err());
    }

    #[test]
    fn report_tracks_best_accuracy() {
        let report = TrainReport {
            epochs: vec![
                EpochStats {
                    epoch: 0,
                    train_loss: 1.0,
                    train_accuracy: 0.5,
                    eval_accuracy: Some(0.6),
                    learning_rate: 0.1,
                },
                EpochStats {
                    epoch: 1,
                    train_loss: 0.5,
                    train_accuracy: 0.8,
                    eval_accuracy: Some(0.9),
                    learning_rate: 0.1,
                },
                EpochStats {
                    epoch: 2,
                    train_loss: 0.4,
                    train_accuracy: 0.85,
                    eval_accuracy: Some(0.85),
                    learning_rate: 0.1,
                },
            ],
        };
        assert_eq!(report.best_eval_accuracy(), Some(0.9));
        assert_eq!(report.final_eval_accuracy(), Some(0.85));
        assert_eq!(report.final_train_accuracy(), 0.85);
    }

    #[test]
    fn lambda_moves_during_training() {
        let (x, y) = blob_data(7, 30);
        let mut net = mlp(8);
        let before = net.clip_lambdas()[0];
        let cfg = TrainConfig::standard(5, 10, 0.05, &[]).unwrap();
        train(&mut net, &x, &y, None, &cfg).unwrap();
        let after = net.clip_lambdas()[0];
        assert_ne!(before, after, "λ should be updated by training");
    }
}
