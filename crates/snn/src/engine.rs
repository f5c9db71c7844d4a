//! Persistent batched inference engine with per-sample early exit.
//!
//! [`evaluate`](crate::evaluate) is a one-shot API: every call clones the
//! network for each worker and spins a fresh thread scope. That is the right
//! shape for a single sweep, but the benchmark drivers evaluate the *same*
//! converted network dozens of times (per strategy, per checkpoint grid, per
//! ablation), re-paying the clone and spawn cost each time. [`Engine`] keeps
//! a long-lived worker pool whose threads cache a per-worker
//! [`LaneEngine`] session, keyed by an epoch counter, so repeated sweeps of
//! one network clone it once per worker.
//!
//! A worker presents a mini-batch on its session: one admission of every
//! row, steps until every lane has retired, then a fold of the checkpoint
//! scores. The session's loop is the one the serving layer runs, so the
//! readout, the retirement rule and the compaction exist once.
//!
//! The engine also adds **per-sample early exit** ([`ExitPolicy::Adaptive`]):
//! rate-coded evidence accumulates monotonically, so once a sample's top-1
//! readout margin has stayed on one class for a while, more timesteps almost
//! never change the prediction — they only cost synaptic operations. A sample
//! *retires* when its margin has been at least `min_margin` with an unchanged
//! argmax for `patience` consecutive steps (and at least `min_steps` steps
//! have run). Retired samples are compacted out of the active batch —
//! [`SpikingNetwork::retain_rows`] drops their membrane rows from every bank —
//! so the surviving samples simulate in a genuinely smaller batch and the
//! saved work is real wall-clock, not bookkeeping. Because every kernel
//! computes batch items independently, compaction leaves the survivors'
//! trajectories bit-for-bit unchanged, and [`ExitPolicy::Off`] (the
//! `patience = ∞` limit) reproduces the fixed-T sweep bitwise.
//!
//! Results come back as an [`EngineResult`]: the usual checkpoint sweep plus
//! per-sample exit steps, predictions at exit, the aggregated margin
//! trajectory ([`MarginTrace`]), and the total timesteps saved.

use crate::lanes::{LaneEngine, LaneId};
use crate::network::{gather_lanes, SpikingNetwork};
use crate::sim::{InputCoding, SimConfig, SweepResult};
use crate::trace::MarginTrace;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use tcl_tensor::{par, simd, Result, SeededRng, Tensor, TensorError};

// The unit tests below reach these through `use super::*`.
#[cfg(test)]
use crate::{lanes::top2, sim::Readout};

/// When a sample may stop simulating before the final checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum ExitPolicy {
    /// No early exit: every sample runs to the largest checkpoint. This is
    /// the `patience = ∞` limit and reproduces [`crate::evaluate`] bitwise.
    #[default]
    Off,
    /// Retire a sample once its readout margin has been *stable*: the top-1
    /// class unchanged and the top-1/top-2 score gap at least `min_margin`
    /// for `patience` consecutive timesteps.
    Adaptive {
        /// Consecutive stable steps required before a sample retires.
        /// Larger values trade saved timesteps for fewer anytime violations.
        patience: usize,
        /// Minimum top-1 minus top-2 readout score gap for a step to count
        /// as stable (in readout-score units: spikes for
        /// [`Readout::SpikeCount`], integrated current for
        /// [`Readout::Membrane`]).
        min_margin: f32,
        /// No sample retires before this many timesteps, regardless of
        /// margin — guards against confident-looking transients while the
        /// spike wavefront is still propagating.
        min_steps: usize,
    },
}

impl ExitPolicy {
    /// Validates the policy parameters.
    ///
    /// # Errors
    ///
    /// Returns an error for `patience == 0` or a negative/NaN `min_margin`.
    pub fn validate(&self) -> Result<()> {
        if let ExitPolicy::Adaptive {
            patience,
            min_margin,
            ..
        } = self
        {
            if *patience == 0 {
                return Err(TensorError::InvalidArgument {
                    detail: "exit policy: patience must be at least 1".into(),
                });
            }
            if !min_margin.is_finite() || *min_margin < 0.0 {
                return Err(TensorError::InvalidArgument {
                    detail: format!("exit policy: min_margin {min_margin} must be finite and ≥ 0"),
                });
            }
        }
        Ok(())
    }

    /// Whether this policy can retire samples early.
    pub fn is_adaptive(&self) -> bool {
        matches!(self, ExitPolicy::Adaptive { .. })
    }
}

/// Results of an engine evaluation: the checkpoint sweep plus per-sample
/// early-exit diagnostics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineResult {
    /// The latency-checkpoint sweep. Under [`ExitPolicy::Adaptive`],
    /// checkpoint scores for retired samples are frozen at their exit step —
    /// the anytime-prediction view of the sweep.
    pub sweep: SweepResult,
    /// Per-sample predicted class, in input order: the class at the exit
    /// step for retired samples, at the final checkpoint otherwise.
    pub predictions: Vec<usize>,
    /// Per-sample timestep at which the prediction was read out (the exit
    /// step for retired samples, `max_t` otherwise).
    pub exit_steps: Vec<usize>,
    /// Per-sample flag: did this sample retire before the final checkpoint?
    pub exited: Vec<bool>,
    /// Accuracy of [`EngineResult::predictions`] — the anytime accuracy the
    /// early-exit run actually delivers.
    pub adaptive_accuracy: f32,
    /// Mean of [`EngineResult::exit_steps`].
    pub mean_exit_step: f32,
    /// Total timesteps *not* simulated thanks to early exit:
    /// `Σ (max_t − exit_step)`. 0 under [`ExitPolicy::Off`].
    pub saved_steps: u64,
    /// Aggregated per-step margin trajectory (empty under
    /// [`ExitPolicy::Off`], which never computes margins).
    pub margins: MarginTrace,
}

/// Per-batch simulation results, folded in batch order.
struct BatchOutcome {
    /// Correct predictions at each checkpoint, in checkpoint order.
    correct: Vec<usize>,
    /// Spikes emitted during this presentation.
    spikes: u64,
    /// Neuron count of the network at full batch width (constant across
    /// batches, carried here so the fold does not need the network).
    neurons: usize,
    /// Predicted class per sample, in within-batch order.
    preds: Vec<usize>,
    /// Readout timestep per sample.
    exit_steps: Vec<usize>,
    /// Early-exit flag per sample.
    exited: Vec<bool>,
    /// Per-step margins over this batch's samples.
    margins: MarginTrace,
}

/// One queued evaluation, shared by the calling thread and the worker pool.
/// Batches are claimed through `next` (work stealing) and results land in
/// `slots` by batch index, so the fold is batch-ordered and bitwise
/// independent of which worker ran what.
struct Job {
    epoch: u64,
    net: Arc<SpikingNetwork>,
    images: Tensor,
    labels: Vec<usize>,
    config: SimConfig,
    policy: ExitPolicy,
    n: usize,
    max_t: usize,
    batch_count: usize,
    next: AtomicUsize,
    slots: Mutex<Vec<Option<Result<BatchOutcome>>>>,
    done: mpsc::Sender<()>,
    parent: Option<u64>,
    /// SIMD level resolved on the submitting thread; pool workers re-apply
    /// it so every batch of a job runs identical kernel numerics.
    level: simd::Level,
}

struct Worker {
    sender: mpsc::Sender<Arc<Job>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// A persistent batched inference engine (see the module docs).
///
/// Worker threads are spawned lazily on the first evaluation that can use
/// them and live until the engine is dropped. Each worker caches a
/// [`LaneEngine`] session over a network replica, keyed by an *epoch*:
/// [`Engine::evaluate_shared`] re-uses the cached replicas whenever it sees
/// the same `Arc` as the previous call, so only the first sweep of a
/// network pays the per-worker clone.
pub struct Engine {
    threads: usize,
    workers: Vec<Worker>,
    epoch: u64,
    shared: Option<(u64, Arc<SpikingNetwork>)>,
    /// The calling thread's own session cache (it participates in the drain
    /// loop just like a pool worker).
    local: Option<(u64, LaneEngine)>,
}

impl Engine {
    /// An engine sized by the process-wide parallelism budget
    /// (`TCL_THREADS`).
    pub fn new() -> Self {
        Self::with_threads(par::current().threads())
    }

    /// An engine with an explicit thread budget (including the calling
    /// thread; `1` means fully inline).
    pub fn with_threads(threads: usize) -> Self {
        Engine {
            threads: threads.max(1),
            workers: Vec::new(),
            epoch: 0,
            shared: None,
            local: None,
        }
    }

    /// The thread budget this engine was built with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Evaluates `net` over the checkpoint sweep in `config` under `policy`.
    ///
    /// Clones the network into the engine once per call; when evaluating the
    /// same network repeatedly, prefer [`Engine::evaluate_shared`], which
    /// recognises a repeated `Arc` and skips the re-clone.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid configuration/policy, empty or
    /// mismatched data, or network shape failures. With multiple failing
    /// batches, the error of the earliest batch is returned.
    pub fn evaluate(
        &mut self,
        net: &SpikingNetwork,
        images: &Tensor,
        labels: &[usize],
        config: &SimConfig,
        policy: ExitPolicy,
    ) -> Result<EngineResult> {
        self.evaluate_shared(&Arc::new(net.clone()), images, labels, config, policy)
    }

    /// Like [`Engine::evaluate`], but takes the network behind an `Arc`:
    /// consecutive calls with the *same* `Arc` (pointer identity) keep every
    /// worker's cached session, so only a reset separates the sweeps.
    ///
    /// # Errors
    ///
    /// See [`Engine::evaluate`].
    pub fn evaluate_shared(
        &mut self,
        net: &Arc<SpikingNetwork>,
        images: &Tensor,
        labels: &[usize],
        config: &SimConfig,
        policy: ExitPolicy,
    ) -> Result<EngineResult> {
        config.validate()?;
        policy.validate()?;
        let n = images.dims().first().copied().unwrap_or(0);
        if n == 0 || labels.len() != n {
            return Err(TensorError::InvalidArgument {
                detail: format!("engine: {n} images vs {} labels", labels.len()),
            });
        }
        // lint: allow(P1) SimConfig::validate above rejects empty checkpoints
        let max_t = *config.checkpoints.last().expect("validated nonempty");
        let batch_count = n.div_ceil(config.batch_size);
        let _span = tcl_telemetry::span_with("engine.evaluate", || {
            vec![
                ("samples", n as f64),
                ("max_t", max_t as f64),
                ("batches", batch_count as f64),
                ("adaptive", f64::from(u8::from(policy.is_adaptive()))),
            ]
        });
        // lint: allow(D1) wall time feeds only the gated engine.* heartbeat
        // gauges below; simulation results never depend on it
        let eval_start = std::time::Instant::now();
        let epoch = self.epoch_for(net);
        let (done_tx, done_rx) = mpsc::channel();
        let mut slots: Vec<Option<Result<BatchOutcome>>> = Vec::with_capacity(batch_count);
        slots.resize_with(batch_count, || None);
        let job = Arc::new(Job {
            epoch,
            net: net.clone(),
            images: images.clone(),
            labels: labels.to_vec(),
            config: config.clone(),
            policy,
            n,
            max_t,
            batch_count,
            next: AtomicUsize::new(0),
            slots: Mutex::new(slots),
            done: done_tx,
            parent: tcl_telemetry::current_span_id(),
            level: simd::current(),
        });
        if self.threads.min(batch_count) > 1 {
            self.ensure_workers();
            // Prune workers whose channel is gone (the thread died); the
            // unclaimed-slot sweep below re-runs anything they dropped.
            self.workers
                .retain(|w| w.sender.send(Arc::clone(&job)).is_ok());
            let sent = self.workers.len();
            // The calling thread drains alongside the pool, in a serial
            // scope like any other coarse-grained worker.
            let replica = Self::replica_for(&mut self.local, epoch, net);
            par::with_serial(|| drain(&job, replica));
            for _ in 0..sent {
                if done_rx.recv().is_err() {
                    break;
                }
            }
        } else {
            // Single-worker path runs inline and keeps kernel-level fan-out
            // available, exactly like the one-shot evaluator's serial path.
            let replica = Self::replica_for(&mut self.local, epoch, net);
            drain(&job, replica);
        }
        let mut slots = {
            // lint: allow(P1) poisoned only if a worker panicked, which is
            // already a bug; propagating the panic is the correct response
            let mut guard = job.slots.lock().expect("engine slots");
            std::mem::take(&mut *guard)
        };
        for (b, slot) in slots.iter_mut().enumerate() {
            if slot.is_none() {
                let replica = Self::replica_for(&mut self.local, epoch, net);
                *slot = Some(run_batch(replica, &job, b));
            }
        }
        let result = fold_outcomes(config, labels, n, max_t, slots)?;
        if tcl_telemetry::metrics_enabled() {
            // Heartbeat gauges for the live exporter (`TCL_OBS_ADDR`):
            // simulation throughput, how often early exit fires, and the
            // mean number of lanes still active per timestep (compaction
            // effectiveness). Gauges keep last/min/max, so a scrape sees
            // the most recent evaluation plus the run envelope.
            let elapsed = eval_start.elapsed().as_secs_f64();
            let total_steps: u64 = result.exit_steps.iter().map(|&s| s as u64).sum();
            if elapsed > 0.0 {
                tcl_telemetry::gauge_set("engine.steps_per_sec", total_steps as f64 / elapsed);
            }
            let exits = result.exited.iter().filter(|&&e| e).count();
            tcl_telemetry::gauge_set("engine.early_exit_rate", exits as f64 / n as f64);
            tcl_telemetry::gauge_set("engine.active_lanes", total_steps as f64 / max_t as f64);
        }
        Ok(result)
    }

    /// The epoch for `net`, bumping it when the pointer differs from the
    /// previous evaluation's network.
    fn epoch_for(&mut self, net: &Arc<SpikingNetwork>) -> u64 {
        if let Some((e, cached)) = &self.shared {
            if Arc::ptr_eq(cached, net) {
                return *e;
            }
        }
        self.epoch += 1;
        self.shared = Some((self.epoch, Arc::clone(net)));
        self.epoch
    }

    /// A cached session, re-cloned from `net` only on epoch change.
    fn replica_for<'a>(
        cache: &'a mut Option<(u64, LaneEngine)>,
        epoch: u64,
        net: &Arc<SpikingNetwork>,
    ) -> &'a mut LaneEngine {
        if cache.as_ref().is_none_or(|(e, _)| *e != epoch) {
            *cache = None;
        }
        &mut cache
            .get_or_insert_with(|| (epoch, LaneEngine::idle(net)))
            .1
    }

    /// Spawns the pool (thread budget minus the participating caller).
    fn ensure_workers(&mut self) {
        while self.workers.len() + 1 < self.threads {
            let (tx, rx) = mpsc::channel::<Arc<Job>>();
            let handle = std::thread::Builder::new()
                .name("tcl-engine".into())
                .spawn(move || worker_loop(&rx))
                // lint: allow(P1) spawn fails only on OS thread exhaustion,
                // which has no recovery path worth plumbing through here
                .expect("spawn engine worker");
            self.workers.push(Worker {
                sender: tx,
                handle: Some(handle),
            });
        }
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("threads", &self.threads)
            .field("workers", &self.workers.len())
            .field("epoch", &self.epoch)
            .finish()
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        for worker in &mut self.workers {
            // Closing the channel ends the worker's receive loop.
            let Worker { sender, handle } = worker;
            drop(std::mem::replace(sender, mpsc::channel().0));
            if let Some(handle) = handle.take() {
                let _ = handle.join();
            }
        }
    }
}

/// A pool worker: caches one session across jobs, re-cloning only when the
/// job's epoch differs from the cached one.
fn worker_loop(rx: &mpsc::Receiver<Arc<Job>>) {
    let mut replica: Option<(u64, LaneEngine)> = None;
    for job in rx.iter() {
        // ordering: Relaxed — claim counter only hands out distinct batch
        // indices; results are published through the slots Mutex, and the
        // done channel orders job completion.
        let first = job.next.fetch_add(1, Ordering::Relaxed);
        if first < job.batch_count {
            tcl_telemetry::propagate_parent(job.parent);
            let _span = tcl_telemetry::span("engine.worker");
            let session = Engine::replica_for(&mut replica, job.epoch, &job.net);
            simd::with_level(job.level, || {
                par::with_serial(|| {
                    store(&job, first, run_batch(session, &job, first));
                    drain(&job, session);
                });
            });
            tcl_telemetry::propagate_parent(None);
        }
        let _ = job.done.send(());
    }
}

/// Claims and runs batches until the job's counter is exhausted.
fn drain(job: &Job, session: &mut LaneEngine) {
    loop {
        // ordering: Relaxed — same claim counter as worker_loop: indices
        // need only be distinct; the slots Mutex publishes the outcomes.
        let b = job.next.fetch_add(1, Ordering::Relaxed);
        if b >= job.batch_count {
            return;
        }
        store(job, b, run_batch(session, job, b));
    }
}

fn store(job: &Job, batch: usize, outcome: Result<BatchOutcome>) {
    // lint: allow(P1) poisoned only if another worker panicked mid-store;
    // joining that panic is the correct response
    job.slots.lock().expect("engine slots")[batch] = Some(outcome);
}

/// Presents one mini-batch on a worker's session: one admission of every
/// row with `max_t` as its budget, steps until every lane has retired, then
/// the batch's checkpoint tallies. Under [`ExitPolicy::Off`] every lane runs
/// to `max_t`; under [`ExitPolicy::Adaptive`] the session's stability rule
/// retires lanes early. A checkpoint reads the live lanes' scores and the
/// retired lanes' scores frozen at their exit step (the anytime view).
fn run_batch(session: &mut LaneEngine, job: &Job, batch_index: usize) -> Result<BatchOutcome> {
    let config = &job.config;
    let start = batch_index * config.batch_size;
    let end = (start + config.batch_size).min(job.n);
    let labels = &job.labels[start..end];
    let x = gather_lanes(&job.images, &(start..end).collect::<Vec<_>>())?;
    session.restart(end - start, config.readout, job.policy);
    if job.policy.is_adaptive() {
        session.trace_margins(job.max_t);
    }
    // The Poisson stream is seeded from the batch index, not from a shared
    // RNG, so batches can run in any order (or concurrently) and still draw
    // the exact impulses the serial sweep would.
    let rng = match config.input_coding {
        InputCoding::Analog => None,
        InputCoding::Poisson { seed } => Some(SeededRng::new(
            seed ^ (batch_index as u64).wrapping_mul(0x9E37_79B9),
        )),
    };
    // Real coding computes node 0's current once, for the whole batch, and
    // drops the analog rows; Poisson coding keeps them to draw from.
    let first = session.admit(&x, job.max_t, rng.is_none())?.0;
    let mut poisson = rng.map(|rng| (x, rng));
    let row = |id: LaneId| (id.0 - first) as usize;
    let mut preds = vec![0; end - start];
    let mut exit_steps = vec![job.max_t; end - start];
    let mut exited = vec![false; end - start];
    let mut correct = vec![0usize; config.checkpoints.len()];
    // Retired samples whose frozen prediction is right.
    let mut frozen_hits = 0usize;
    let mut checkpoint_idx = 0usize;
    for t in 1..=job.max_t {
        let retired = match &mut poisson {
            None => session.step()?,
            // Impulses are drawn for the FULL batch and then gathered, so
            // each sample consumes the same stream it would without
            // compaction: a neighbour's retirement never shifts its draws.
            Some((x, rng)) => {
                let lanes: Vec<usize> = session.lane_ids().map(row).collect();
                session.step_input(&gather_lanes(&poisson_step(x, rng), &lanes)?)?
            }
        };
        for out in retired {
            let i = row(out.id);
            preds[i] = out.pred;
            exit_steps[i] = out.steps;
            exited[i] = out.early;
            frozen_hits += usize::from(out.pred == labels[i]);
        }
        if config.checkpoints.get(checkpoint_idx) == Some(&t) {
            let live = session.active_preds();
            let live_hits = live.iter().filter(|&&(id, p)| p == labels[row(id)]);
            correct[checkpoint_idx] = frozen_hits + live_hits.count();
            checkpoint_idx += 1;
        }
        if session.active() == 0 {
            break;
        }
    }
    // Checkpoints after every lane retired read frozen scores only.
    correct[checkpoint_idx..].fill(frozen_hits);
    Ok(BatchOutcome {
        correct,
        spikes: session.spikes(),
        neurons: session.neurons(),
        preds,
        exit_steps,
        exited,
        margins: session.take_margins(),
    })
}

/// Draws one step of signed Bernoulli impulses for the whole batch tensor:
/// expectation equals the clamped analog value, so rate coding is unbiased
/// for |v| ≤ 1 (standardized pixels mostly are).
fn poisson_step(x: &Tensor, rng: &mut SeededRng) -> Tensor {
    x.map(|v| {
        let p = v.abs().min(1.0);
        if rng.uniform(0.0, 1.0) < p {
            v.signum()
        } else {
            0.0
        }
    })
}

/// Folds per-batch outcomes (in batch order) into an [`EngineResult`].
fn fold_outcomes(
    config: &SimConfig,
    labels: &[usize],
    n: usize,
    max_t: usize,
    slots: Vec<Option<Result<BatchOutcome>>>,
) -> Result<EngineResult> {
    let mut correct = vec![0usize; config.checkpoints.len()];
    let mut total_spikes = 0u64;
    let mut rate_accum = 0.0f64;
    let mut rate_batches = 0usize;
    let mut predictions = Vec::with_capacity(n);
    let mut exit_steps = Vec::with_capacity(n);
    let mut exited = Vec::with_capacity(n);
    let mut margins = MarginTrace::default();
    for slot in slots {
        // lint: allow(P1) evaluate's unclaimed-slot sweep re-runs every
        // batch a dead worker dropped before folding
        let outcome = slot.expect("engine: every batch slot filled")?;
        for (c, b) in correct.iter_mut().zip(&outcome.correct) {
            *c += b;
        }
        total_spikes += outcome.spikes;
        if outcome.neurons > 0 {
            let rate = outcome.spikes as f64 / (outcome.neurons as f64 * max_t as f64);
            rate_accum += rate;
            rate_batches += 1;
            // Per-batch mean firing rate distribution (rates live in [0, 1]).
            if tcl_telemetry::metrics_enabled() {
                tcl_telemetry::hist_record("snn.firing_rate", rate, 1.0, 20);
            }
        }
        predictions.extend(outcome.preds);
        exit_steps.extend(outcome.exit_steps);
        exited.extend(outcome.exited);
        margins.merge(&outcome.margins);
    }
    let accuracies = config
        .checkpoints
        .iter()
        .zip(&correct)
        .map(|(&t, &c)| (t, c as f32 / n as f32))
        .collect();
    let sweep = SweepResult {
        accuracies,
        mean_firing_rate: if rate_batches > 0 {
            (rate_accum / rate_batches as f64) as f32
        } else {
            0.0
        },
        total_spikes,
        samples: n,
    };
    let adaptive_correct = predictions
        .iter()
        .zip(labels)
        .filter(|(p, l)| p == l)
        .count();
    let saved_steps: u64 = exit_steps.iter().map(|&s| (max_t - s) as u64).sum();
    let mean_exit_step = exit_steps.iter().sum::<usize>() as f32 / n as f32;
    if tcl_telemetry::metrics_enabled() {
        tcl_telemetry::counter_add("engine.samples", n as u64);
        tcl_telemetry::counter_add(
            "engine.early_exits",
            exited.iter().filter(|&&e| e).count() as u64,
        );
        tcl_telemetry::counter_add("engine.saved_steps", saved_steps);
    }
    Ok(EngineResult {
        sweep,
        predictions,
        exit_steps,
        exited,
        adaptive_accuracy: adaptive_correct as f32 / n as f32,
        mean_exit_step,
        saved_steps,
        margins,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neuron::{IfNeurons, ResetMode};
    use crate::node::{SpikingLayer, SpikingNode};
    use crate::synop::SynapticOp;

    fn copy_net() -> SpikingNetwork {
        SpikingNetwork::new(vec![SpikingNode::Spiking(SpikingLayer::new(
            SynapticOp::linear(
                Tensor::from_vec([2, 2], vec![1.0, 0.0, 0.0, 1.0]).unwrap(),
                None,
            )
            .unwrap(),
            IfNeurons::new(1.0, ResetMode::Subtract),
        ))])
    }

    fn toy_data() -> (Tensor, Vec<usize>) {
        let images =
            Tensor::from_vec([4, 2], vec![0.9, 0.1, 0.8, 0.3, 0.2, 0.7, 0.05, 0.6]).unwrap();
        (images, vec![0, 0, 1, 1])
    }

    #[test]
    fn off_policy_matches_the_one_shot_evaluator() {
        let net = copy_net();
        let (x, y) = toy_data();
        let cfg = SimConfig::new(vec![2, 30], 3, Readout::SpikeCount).unwrap();
        let reference = crate::evaluate(&net, &x, &y, &cfg).unwrap();
        for threads in [1, 4] {
            let mut engine = Engine::with_threads(threads);
            let result = engine
                .evaluate(&net, &x, &y, &cfg, ExitPolicy::Off)
                .unwrap();
            assert_eq!(result.sweep.accuracies, reference.accuracies);
            assert_eq!(result.sweep.total_spikes, reference.total_spikes);
            assert_eq!(result.exit_steps, vec![30; 4]);
            assert_eq!(result.exited, vec![false; 4]);
            assert_eq!(result.saved_steps, 0);
            assert_eq!(result.margins.steps(), 0);
            // Off-policy predictions are the final-checkpoint predictions.
            assert_eq!(result.adaptive_accuracy, reference.final_accuracy());
        }
    }

    #[test]
    fn adaptive_exits_early_on_confident_samples() {
        let net = copy_net();
        let (x, y) = toy_data();
        let cfg = SimConfig::new(vec![100], 4, Readout::SpikeCount).unwrap();
        let mut engine = Engine::with_threads(1);
        let policy = ExitPolicy::Adaptive {
            patience: 5,
            min_margin: 3.0,
            min_steps: 10,
        };
        let result = engine.evaluate(&net, &x, &y, &cfg, policy).unwrap();
        assert!(result.exited.iter().any(|&e| e), "{result:?}");
        assert!(result.saved_steps > 0);
        assert!(result.mean_exit_step < 100.0);
        assert_eq!(result.adaptive_accuracy, 1.0);
        // Margins were tracked while samples were active.
        assert!(result.margins.active_at(0) == 4);
        // No sample exited before min_steps.
        for (&step, &e) in result.exit_steps.iter().zip(&result.exited) {
            if e {
                assert!((10..100).contains(&step));
            }
        }
    }

    #[test]
    fn adaptive_with_unreachable_patience_matches_fixed_sweep() {
        let net = copy_net();
        let (x, y) = toy_data();
        let cfg = SimConfig::new(vec![3, 40], 2, Readout::Membrane).unwrap();
        let mut engine = Engine::with_threads(2);
        let fixed = engine
            .evaluate(&net, &x, &y, &cfg, ExitPolicy::Off)
            .unwrap();
        let never = ExitPolicy::Adaptive {
            patience: usize::MAX,
            min_margin: 0.0,
            min_steps: 0,
        };
        let adaptive = engine.evaluate(&net, &x, &y, &cfg, never).unwrap();
        assert_eq!(adaptive.sweep.accuracies, fixed.sweep.accuracies);
        assert_eq!(adaptive.sweep.total_spikes, fixed.sweep.total_spikes);
        assert_eq!(adaptive.predictions, fixed.predictions);
        assert_eq!(adaptive.exited, vec![false; 4]);
        // Unlike Off, the adaptive path tracked margins every step.
        assert_eq!(adaptive.margins.steps(), 40);
    }

    #[test]
    fn engine_reuses_shared_networks_across_calls() {
        let net = Arc::new(copy_net());
        let (x, y) = toy_data();
        let cfg = SimConfig::new(vec![20], 2, Readout::SpikeCount).unwrap();
        let mut engine = Engine::with_threads(2);
        let a = engine
            .evaluate_shared(&net, &x, &y, &cfg, ExitPolicy::Off)
            .unwrap();
        let epoch_after_first = engine.epoch;
        let b = engine
            .evaluate_shared(&net, &x, &y, &cfg, ExitPolicy::Off)
            .unwrap();
        assert_eq!(engine.epoch, epoch_after_first, "same Arc, same epoch");
        assert_eq!(a.sweep.accuracies, b.sweep.accuracies);
        assert_eq!(a.sweep.total_spikes, b.sweep.total_spikes);
        // A different network bumps the epoch (replicas re-clone).
        let other = Arc::new(copy_net());
        engine
            .evaluate_shared(&other, &x, &y, &cfg, ExitPolicy::Off)
            .unwrap();
        assert_eq!(engine.epoch, epoch_after_first + 1);
    }

    #[test]
    fn poisson_streams_survive_compaction() {
        // Early-exit must not shift surviving samples' Poisson draws: the
        // non-exiting sample's prediction trajectory matches the fixed run.
        let net = copy_net();
        let x = Tensor::from_vec([2, 2], vec![0.9, 0.05, 0.5, 0.45]).unwrap();
        let y = vec![0, 0];
        let cfg = SimConfig::new(vec![60], 2, Readout::SpikeCount)
            .unwrap()
            .with_input_coding(InputCoding::Poisson { seed: 13 });
        let mut engine = Engine::with_threads(1);
        let fixed = engine
            .evaluate(&net, &x, &y, &cfg, ExitPolicy::Off)
            .unwrap();
        let policy = ExitPolicy::Adaptive {
            patience: 4,
            min_margin: 5.0,
            min_steps: 5,
        };
        let adaptive = engine.evaluate(&net, &x, &y, &cfg, policy).unwrap();
        // Sample 0 is overwhelmingly class 0 and exits; sample 1 is nearly
        // balanced and rides to max_t with an unshifted spike stream, so its
        // final prediction matches the fixed sweep's.
        assert_eq!(adaptive.predictions[1], fixed.predictions[1]);
    }

    #[test]
    fn invalid_policies_and_configs_are_rejected() {
        let net = copy_net();
        let (x, y) = toy_data();
        let cfg = SimConfig::new(vec![5], 2, Readout::SpikeCount).unwrap();
        let mut engine = Engine::with_threads(1);
        let bad_patience = ExitPolicy::Adaptive {
            patience: 0,
            min_margin: 1.0,
            min_steps: 0,
        };
        assert!(engine.evaluate(&net, &x, &y, &cfg, bad_patience).is_err());
        let bad_margin = ExitPolicy::Adaptive {
            patience: 1,
            min_margin: f32::NAN,
            min_steps: 0,
        };
        assert!(engine.evaluate(&net, &x, &y, &cfg, bad_margin).is_err());
        // Direct struct construction bypassing SimConfig::new gets a clear
        // error instead of a panic.
        let rogue = SimConfig {
            checkpoints: vec![],
            batch_size: 2,
            readout: Readout::SpikeCount,
            input_coding: InputCoding::Analog,
        };
        let err = engine
            .evaluate(&net, &x, &y, &rogue, ExitPolicy::Off)
            .unwrap_err();
        assert!(err.to_string().contains("checkpoint"), "{err}");
    }

    #[test]
    fn top2_uses_argmax_tie_rule() {
        assert_eq!(top2(&[1.0, 3.0, 2.0]), (1, 1.0));
        // Ties: first index wins, margin zero.
        assert_eq!(top2(&[2.0, 2.0]), (0, 0.0));
        assert_eq!(top2(&[5.0]), (0, f32::INFINITY));
        let (i, m) = top2(&[1.0, 1.0, 1.0]);
        assert_eq!((i, m), (0, 0.0));
    }

    #[test]
    fn all_samples_exiting_still_scores_remaining_checkpoints() {
        let net = copy_net();
        let (x, y) = toy_data();
        let cfg = SimConfig::new(vec![50, 100], 4, Readout::SpikeCount).unwrap();
        let mut engine = Engine::with_threads(1);
        let policy = ExitPolicy::Adaptive {
            patience: 3,
            min_margin: 1.0,
            min_steps: 5,
        };
        let result = engine.evaluate(&net, &x, &y, &cfg, policy).unwrap();
        assert_eq!(result.exited, vec![true; 4], "{result:?}");
        assert_eq!(result.sweep.accuracies.len(), 2);
        // Frozen scores carry both checkpoints.
        assert_eq!(result.sweep.accuracies[0].1, result.sweep.accuracies[1].1);
    }
}
