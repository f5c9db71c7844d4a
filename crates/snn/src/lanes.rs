//! The stepping loop: lanes admitted, stepped and retired.
//!
//! [`LaneEngine`] is the simulator's one batch-stepping loop. A **lane** is
//! one row of the running batch, and two callers drive it:
//!
//! * a serving loop admits samples one at a time, at unpredictable moments,
//!   with [`LaneEngine::submit`], and steps the open loop with
//!   [`LaneEngine::step`], answering each sample as soon as *its own*
//!   evidence is stable;
//! * [`Engine`](crate::Engine)'s workers admit a whole mini-batch at once
//!   and step until every lane has retired, reading checkpoint accuracies
//!   between steps.
//!
//! Admission computes the admitted rows' node-0 current once
//! ([`SpikingNetwork::drive`]) and appends a zero membrane row per lane to
//! every neuron bank ([`SpikingNetwork::grow_rows`]) — bit-for-bit the
//! state of a freshly reset network — so a lane admitted at global step 512
//! simulates exactly as if it had been presented alone at step 1. Each step
//! advances every active lane and retires the lanes whose readout margin
//! has been stable for `patience` steps (early exit, [`ExitPolicy::Adaptive`])
//! or that exhausted their step budget. Retired lanes are compacted out in
//! place ([`SpikingNetwork::retain_rows`]), so their capacity is free for
//! the next admission mid-loop instead of idling until the batch drains.
//!
//! Because every kernel computes batch rows independently (the invariant
//! compaction relies on), a lane's trajectory — scores, margins, exit step —
//! is bitwise identical whatever its batchmates are. The
//! `lane_engine_matches_batch_engine` test pins submitted lanes against
//! [`Engine::evaluate`](crate::Engine::evaluate), and the serving crate's
//! simulation suite pins them across staggered admission orders.

use crate::engine::ExitPolicy;
use crate::network::{Drive, SpikingNetwork};
use crate::node::SpikingNode;
use crate::sim::Readout;
use crate::trace::MarginTrace;
use std::borrow::Cow;
use tcl_tensor::{par, Result, Shape, Tensor, TensorError};

/// Identifier of a submitted sample, unique within one [`LaneEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LaneId(pub u64);

/// A retired lane: the answer for one submitted sample.
#[derive(Debug, Clone)]
pub struct LaneOutput {
    /// The id returned by [`LaneEngine::submit`].
    pub id: LaneId,
    /// Predicted class (argmax of `scores`, first index wins ties).
    pub pred: usize,
    /// Timesteps this lane simulated before retiring.
    pub steps: usize,
    /// `true` if the lane retired on margin stability before its budget;
    /// `false` if it ran its full step budget.
    pub early: bool,
    /// Top-1 minus top-2 readout score gap at retirement.
    pub margin: f32,
    /// Per-class readout scores at retirement (spike counts or integrated
    /// membrane current, per the configured [`Readout`]).
    pub scores: Vec<f32>,
}

/// One active lane's bookkeeping (indexes into the compacted batch are
/// implicit: `lanes[p]` owns batch row `p`).
#[derive(Debug, Clone, Copy)]
struct Lane {
    id: LaneId,
    /// Timesteps simulated so far for this lane.
    age: usize,
    /// Retire unconditionally once `age` reaches this.
    budget: usize,
    /// Top-1 class at the last scored step.
    last_top: usize,
    /// Consecutive steps the margin has been stable.
    stable: usize,
}

/// A continuous-batching inference session over one spiking network (see
/// the module docs).
///
/// Single-threaded by design: the serving loop owns it and drives it from
/// one thread, and [`LaneEngine::submit`] and [`LaneEngine::step`] run in a
/// [`par::with_serial`] scope, so no kernel below them spawns threads: at
/// serving batch sizes a per-call fan-out costs more than it computes.
#[derive(Debug, Clone)]
pub struct LaneEngine {
    net: SpikingNetwork,
    readout: Readout,
    policy: ExitPolicy,
    capacity: usize,
    lanes: Vec<Lane>,
    /// Sample dims without the batch dimension; fixed by the first admission.
    sample_dims: Option<Vec<usize>>,
    /// Node 0's drive for the active lanes, one row per lane: set by the
    /// first admission, grown by each admission and gathered by each
    /// compaction, so a step reads it in place. `None` for lanes admitted
    /// without a drive, whose stimulus comes with each step.
    stimulus: Option<Drive<'static>>,
    /// Accumulated output spike counts, `lanes.len() × classes` row-major.
    counts: Vec<f32>,
    /// The rows a step keeps, reused from step to step.
    keep: Vec<usize>,
    /// Output classes; 0 until the first step discovers the output width.
    classes: usize,
    next_id: u64,
    engine_steps: u64,
    lane_steps: u64,
    /// Neurons of the widest batch stepped since the last restart.
    widest: usize,
    /// The active lanes' margins per lane age, when recording.
    margins: Option<MarginTrace>,
}

impl LaneEngine {
    /// Creates a session over a clone of `net` with room for `capacity`
    /// concurrent lanes.
    ///
    /// # Errors
    ///
    /// Returns an error for zero capacity or an invalid policy.
    pub fn new(
        net: &SpikingNetwork,
        capacity: usize,
        readout: Readout,
        policy: ExitPolicy,
    ) -> Result<Self> {
        policy.validate()?;
        if capacity == 0 {
            return Err(TensorError::InvalidArgument {
                detail: "lane engine: capacity must be at least 1".into(),
            });
        }
        let mut session = Self::idle(net);
        session.restart(capacity, readout, policy);
        Ok(session)
    }

    /// A session over a clone of `net` with no lane capacity until
    /// [`LaneEngine::restart`] gives it some.
    pub(crate) fn idle(net: &SpikingNetwork) -> Self {
        LaneEngine {
            net: net.clone(),
            readout: Readout::default(),
            policy: ExitPolicy::Off,
            capacity: 0,
            lanes: Vec::new(),
            sample_dims: None,
            stimulus: None,
            counts: Vec::new(),
            keep: Vec::new(),
            classes: 0,
            next_id: 0,
            engine_steps: 0,
            lane_steps: 0,
            widest: 0,
            margins: None,
        }
    }

    /// Empties the session for a new presentation: a reset network, no
    /// lanes and no drive, under the given capacity, readout and (validated)
    /// policy. The spike, neuron and margin records start over; lane ids
    /// and the step totals do not.
    pub(crate) fn restart(&mut self, capacity: usize, readout: Readout, policy: ExitPolicy) {
        self.net.reset();
        self.lanes.clear();
        self.sample_dims = None;
        self.stimulus = None;
        self.counts.clear();
        self.widest = 0;
        self.margins = None;
        self.capacity = capacity;
        self.readout = readout;
        self.policy = policy;
    }

    /// Maximum concurrent lanes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Currently occupied lanes.
    pub fn active(&self) -> usize {
        self.lanes.len()
    }

    /// Lanes available for [`LaneEngine::submit`] right now.
    pub fn free_lanes(&self) -> usize {
        self.capacity - self.lanes.len()
    }

    /// Timesteps the shared loop has advanced (each may serve many lanes).
    pub fn engine_steps(&self) -> u64 {
        self.engine_steps
    }

    /// Total lane-timesteps simulated: `Σ active-lanes` over all steps.
    /// This is the work measure continuous batching minimizes — compare it
    /// to `batch_rows × max_t` for the equivalent fixed back-to-back sweeps.
    pub fn lane_steps(&self) -> u64 {
        self.lane_steps
    }

    /// Admits one sample into a free lane.
    ///
    /// `sample` carries a single presentation without the batch dimension
    /// (e.g. `[features]` or `[c, h, w]`) or with a unit one (`[1, ...]`);
    /// one with the unit dimension is admitted as it is, without a copy.
    /// `budget` is the lane's maximum timesteps — the deadline, expressed in
    /// the exit policy's currency; the lane retires unconditionally when it
    /// has simulated `budget` steps.
    ///
    /// # Errors
    ///
    /// Returns an error when every lane is occupied, on a zero budget, on a
    /// shape mismatch with previously admitted samples, or when node 0
    /// rejects the sample. A rejected sample leaves the session unchanged.
    pub fn submit(&mut self, sample: &Tensor, budget: usize) -> Result<LaneId> {
        if matches!(sample.dims(), [1, rest @ ..] if !rest.is_empty()) {
            return par::with_serial(|| self.admit(sample, budget, true));
        }
        let one: Vec<usize> = std::iter::once(1)
            .chain(sample.dims().iter().copied())
            .collect();
        let sample = sample.reshape(Shape::new(one))?;
        par::with_serial(|| self.admit(&sample, budget, true))
    }

    /// Admits every row of `batch` (`[rows, ...]`) as a lane with step
    /// budget `budget`; the lanes take consecutive ids, in row order, from
    /// the one returned.
    ///
    /// With `driven`, node 0's current for all rows comes from one
    /// [`SpikingNetwork::drive`] call. For a linear node 0 at `Avx2` a row's
    /// bits depend on its position in the batch, so a batch admitted whole
    /// keeps its full-batch bits and a submitted sample its solo ones.
    /// Without `driven` the lanes get no drive, and each step's stimulus
    /// comes through [`LaneEngine::step_input`].
    ///
    /// # Errors
    ///
    /// As [`LaneEngine::submit`]; a rejected batch leaves the session
    /// unchanged.
    pub(crate) fn admit(&mut self, batch: &Tensor, budget: usize, driven: bool) -> Result<LaneId> {
        let (&rows, dims) = batch.dims().split_first().unwrap_or((&0, &[]));
        if self.lanes.len() + rows > self.capacity {
            return Err(TensorError::InvalidArgument {
                detail: format!(
                    "lane engine: {rows} lanes requested, {} of {} free",
                    self.free_lanes(),
                    self.capacity
                ),
            });
        }
        if budget == 0 {
            return Err(TensorError::InvalidArgument {
                detail: "lane engine: step budget must be at least 1".into(),
            });
        }
        if let Some(expected) = self.sample_dims.as_ref().filter(|e| e.as_slice() != dims) {
            return Err(TensorError::InvalidArgument {
                detail: format!(
                    "lane engine: sample dims {dims:?} do not match session dims {expected:?}"
                ),
            });
        }
        // Node 0 sees the rows before any lane state changes.
        if driven {
            let drive = self.net.drive(batch)?;
            match &mut self.stimulus {
                Some(stimulus) => stimulus.append(&drive)?,
                None => self.stimulus = Some(drive.into_owned()),
            }
        }
        self.sample_dims = Some(dims.to_vec());
        self.net.grow_rows(rows);
        self.counts
            .resize(self.counts.len() + rows * self.classes, 0.0);
        let first = self.next_id;
        self.next_id += rows as u64;
        self.lanes.extend((first..self.next_id).map(|id| Lane {
            id: LaneId(id),
            age: 0,
            budget,
            last_top: 0,
            stable: 0,
        }));
        Ok(LaneId(first))
    }

    /// Advances every active lane one timestep; returns the lanes that
    /// retired this step (possibly empty). A no-op returning `[]` when no
    /// lane is active.
    ///
    /// # Errors
    ///
    /// Propagates network shape errors. On error the session should be
    /// considered poisoned (the serving layer rebuilds it and re-submits).
    pub fn step(&mut self) -> Result<Vec<LaneOutput>> {
        par::with_serial(|| {
            // Set by the admission of the first active lane.
            let Some(stimulus) = self.stimulus.as_ref().filter(|_| !self.lanes.is_empty()) else {
                return Ok(Vec::new());
            };
            let spikes = self.net.step_driven(stimulus)?;
            self.advance(&spikes)
        })
    }

    /// [`LaneEngine::step`] on `input`, the active lanes' stimulus for this
    /// step in lane order, instead of the admitted drive: Poisson coding
    /// draws fresh impulses every step.
    pub(crate) fn step_input(&mut self, input: &Tensor) -> Result<Vec<LaneOutput>> {
        if self.lanes.is_empty() {
            return Ok(Vec::new());
        }
        let spikes = self.net.step(input)?;
        self.advance(&spikes)
    }

    /// Adds one step's output spikes to the lanes' counts, applies the
    /// retirement rule and compacts the retired lanes out.
    fn advance(&mut self, spikes: &Tensor) -> Result<Vec<LaneOutput>> {
        let active = self.lanes.len();
        let (_, classes) = spikes.shape().as_matrix()?;
        if self.classes == 0 {
            self.classes = classes;
            self.counts = vec![0.0; active * classes];
        }
        for (c, s) in self.counts.iter_mut().zip(spikes.data()) {
            *c += s;
        }
        self.engine_steps += 1;
        self.lane_steps += active as u64;
        let neurons = self.net.nodes().iter().map(SpikingNode::neuron_count).sum();
        self.widest = self.widest.max(neurons);

        let (adaptive, patience, min_margin, min_steps) = match self.policy {
            ExitPolicy::Off => (false, 0, 0.0, 0),
            ExitPolicy::Adaptive {
                patience,
                min_margin,
                min_steps,
            } => (true, patience, min_margin, min_steps),
        };
        // Score every step under the adaptive policy (the margin machinery
        // needs it); under Off only when some lane completes its budget.
        let budget_due = self.lanes.iter().any(|l| l.age + 1 >= l.budget);
        let scores =
            (adaptive || budget_due).then(|| readout_scores(self.readout, &self.counts, &self.net));
        let mut retired = Vec::new();
        let mut keep = std::mem::take(&mut self.keep);
        keep.clear();
        for (p, lane) in self.lanes.iter_mut().enumerate() {
            lane.age += 1;
            let t = lane.age;
            if let Some(scores) = &scores {
                let (top, margin) = top2(&scores[p * classes..(p + 1) * classes]);
                if let Some(trace) = &mut self.margins {
                    trace.record(t - 1, margin);
                }
                // The streak continues only while the argmax holds and the
                // margin clears the bar.
                if margin >= min_margin && top == lane.last_top && lane.stable > 0 {
                    lane.stable += 1;
                } else if margin >= min_margin {
                    lane.stable = 1;
                } else {
                    lane.stable = 0;
                }
                lane.last_top = top;
            }
            let early = adaptive && t >= min_steps && t < lane.budget && lane.stable >= patience;
            if early || t >= lane.budget {
                // lint: allow(P1) retiring implies budget_due or an adaptive
                // policy, both of which force scores to be computed
                let scores = scores.as_ref().expect("scored on retirement steps");
                let row = scores[p * classes..(p + 1) * classes].to_vec();
                let (pred, margin) = top2(&row);
                retired.push(LaneOutput {
                    id: lane.id,
                    pred,
                    steps: t,
                    early,
                    margin,
                    scores: row,
                });
            } else {
                keep.push(p);
            }
        }
        drop(scores);
        if !retired.is_empty() {
            self.compact(&keep)?;
        }
        self.keep = keep;
        Ok(retired)
    }

    /// Each active lane's id and top-1 class under the current readout, in
    /// lane order: an anytime read between steps.
    pub(crate) fn active_preds(&self) -> Vec<(LaneId, usize)> {
        let scores = readout_scores(self.readout, &self.counts, &self.net);
        self.lanes
            .iter()
            .zip(scores.chunks_exact(self.classes.max(1)))
            .map(|(lane, row)| (lane.id, top2(row).0))
            .collect()
    }

    /// The active lanes' ids, in lane (batch row) order.
    pub(crate) fn lane_ids(&self) -> impl Iterator<Item = LaneId> + '_ {
        self.lanes.iter().map(|lane| lane.id)
    }

    /// Spikes emitted since the last restart.
    pub(crate) fn spikes(&self) -> u64 {
        self.net.total_spikes()
    }

    /// Neurons of the widest batch stepped since the last restart: the
    /// whole admitted batch, counted on its first step.
    pub(crate) fn neurons(&self) -> usize {
        self.widest
    }

    /// Records every scored lane's margin from now on, at index `age − 1`
    /// of a trace of `steps` steps (later ages are dropped).
    pub(crate) fn trace_margins(&mut self, steps: usize) {
        self.margins = Some(MarginTrace::new(steps));
    }

    /// The recorded margins (empty when not recording); recording stops.
    pub(crate) fn take_margins(&mut self) -> MarginTrace {
        self.margins.take().unwrap_or_default()
    }

    /// Keeps rows `keep` (ascending) of the network, the drive, the counts
    /// and the lane table, moving each down in place: batch row `p` stays
    /// aligned with `lanes[p]`.
    fn compact(&mut self, keep: &[usize]) -> Result<()> {
        self.net.retain_rows(keep)?;
        if let Some(stimulus) = &mut self.stimulus {
            *stimulus = stimulus.gather(keep)?;
        }
        let c = self.classes;
        for (dst, &src) in keep.iter().enumerate() {
            self.lanes[dst] = self.lanes[src];
            self.counts.copy_within(src * c..(src + 1) * c, dst * c);
        }
        self.lanes.truncate(keep.len());
        self.counts.truncate(keep.len() * c);
        Ok(())
    }
}

/// Readout scores for all active lanes, `active × classes` row-major:
/// `counts` itself for spike-count readout, `counts·V_thr + V` for membrane.
fn readout_scores<'a>(readout: Readout, counts: &'a [f32], net: &SpikingNetwork) -> Cow<'a, [f32]> {
    match readout {
        Readout::SpikeCount => Cow::Borrowed(counts),
        Readout::Membrane => {
            let thr = net.output_threshold().unwrap_or(1.0);
            let mut s: Vec<f32> = counts.iter().map(|c| c * thr).collect();
            if let Some(v) = net.output_potential() {
                for (si, vi) in s.iter_mut().zip(v.data()) {
                    *si += vi;
                }
            }
            Cow::Owned(s)
        }
    }
}

/// Top-1 index and top-1 minus top-2 gap of a score row, with the same tie
/// rule as [`tcl_tensor::ops::argmax_rows`] (strict `>`, first index wins).
/// A one-class row has an infinite margin (there is no runner-up to
/// overtake).
pub(crate) fn top2(row: &[f32]) -> (usize, f32) {
    let mut best = 0usize;
    let mut best_v = row[0];
    let mut second = f32::NEG_INFINITY;
    for (i, &v) in row.iter().enumerate().skip(1) {
        if v > best_v {
            second = best_v;
            best_v = v;
            best = i;
        } else if v > second {
            second = v;
        }
    }
    if row.len() < 2 {
        (best, f32::INFINITY)
    } else {
        (best, best_v - second)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::neuron::{IfNeurons, ResetMode};
    use crate::node::{SpikingLayer, SpikingNode};
    use crate::sim::SimConfig;
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

    fn row(images: &Tensor, i: usize) -> Tensor {
        let cols = images.dims()[1];
        Tensor::from_vec([cols], images.data()[i * cols..(i + 1) * cols].to_vec()).unwrap()
    }

    /// Serial oracle: one sample alone on a fresh network for `t` steps,
    /// returning the spike-count readout scores.
    fn solo_scores(net: &SpikingNetwork, sample: &Tensor, t: usize) -> Vec<f32> {
        let mut net = net.clone();
        net.reset();
        let cols = sample.len();
        let x = Tensor::from_vec([1, cols], sample.data().to_vec()).unwrap();
        let mut counts: Option<Tensor> = None;
        for _ in 0..t {
            let s = net.step(&x).unwrap();
            match &mut counts {
                Some(c) => c.add_assign(&s).unwrap(),
                None => counts = Some(s),
            }
        }
        counts.unwrap().into_vec()
    }

    fn drain(engine: &mut LaneEngine) -> Vec<LaneOutput> {
        let mut out = Vec::new();
        while engine.active() > 0 {
            out.extend(engine.step().unwrap());
        }
        out
    }

    #[test]
    fn lane_engine_matches_batch_engine() {
        let net = copy_net();
        let (x, y) = toy_data();
        let max_t = 100;
        let policy = ExitPolicy::Adaptive {
            patience: 5,
            min_margin: 3.0,
            min_steps: 10,
        };
        let cfg = SimConfig::new(vec![max_t], 4, Readout::SpikeCount).unwrap();
        let mut batch = Engine::with_threads(1);
        let reference = batch.evaluate(&net, &x, &y, &cfg, policy).unwrap();

        let mut lanes = LaneEngine::new(&net, 4, Readout::SpikeCount, policy).unwrap();
        let ids: Vec<LaneId> = (0..4)
            .map(|i| lanes.submit(&row(&x, i), max_t).unwrap())
            .collect();
        let mut outputs = drain(&mut lanes);
        outputs.sort_by_key(|o| o.id);
        assert_eq!(outputs.len(), 4);
        for (i, out) in outputs.iter().enumerate() {
            assert_eq!(out.id, ids[i]);
            assert_eq!(out.pred, reference.predictions[i], "sample {i}");
            assert_eq!(out.steps, reference.exit_steps[i], "sample {i}");
            assert_eq!(out.early, reference.exited[i], "sample {i}");
        }
        // The shared loop ran to the slowest lane; total lane work matches
        // the batch engine's per-sample exit steps exactly.
        let expected_lane_steps: u64 = reference.exit_steps.iter().map(|&s| s as u64).sum();
        assert_eq!(lanes.lane_steps(), expected_lane_steps);
        assert_eq!(
            lanes.engine_steps(),
            *reference.exit_steps.iter().max().unwrap() as u64
        );
    }

    #[test]
    fn staggered_admission_is_bitwise_equal_to_solo_runs() {
        // Sample B joins 7 steps after A; both must produce exactly the
        // scores a solo presentation would.
        let net = copy_net();
        let (x, _) = toy_data();
        let policy = ExitPolicy::Off;
        let mut lanes = LaneEngine::new(&net, 2, Readout::SpikeCount, policy).unwrap();
        lanes.submit(&row(&x, 0), 20).unwrap();
        let mut outputs = Vec::new();
        for _ in 0..7 {
            outputs.extend(lanes.step().unwrap());
        }
        lanes.submit(&row(&x, 2), 20).unwrap();
        outputs.extend(drain(&mut lanes));
        outputs.sort_by_key(|o| o.id);
        assert_eq!(outputs.len(), 2);
        assert_eq!(outputs[0].scores, solo_scores(&net, &row(&x, 0), 20));
        assert_eq!(outputs[1].scores, solo_scores(&net, &row(&x, 2), 20));
        assert!(!outputs[0].early && !outputs[1].early);
        assert_eq!(outputs[0].steps, 20);
        assert_eq!(outputs[1].steps, 20);
        // B was admitted into the running loop: the shared loop is shorter
        // than two back-to-back presentations.
        assert_eq!(lanes.engine_steps(), 27);
        assert_eq!(lanes.lane_steps(), 40);
    }

    #[test]
    fn freed_lanes_are_reusable_and_budgets_are_per_lane() {
        let net = copy_net();
        let (x, _) = toy_data();
        let mut lanes = LaneEngine::new(&net, 1, Readout::SpikeCount, ExitPolicy::Off).unwrap();
        lanes.submit(&row(&x, 0), 5).unwrap();
        // Capacity exhausted while the lane runs.
        assert!(lanes.submit(&row(&x, 1), 5).is_err());
        let mut retired = Vec::new();
        for _ in 0..5 {
            retired.extend(lanes.step().unwrap());
        }
        assert_eq!(retired.len(), 1);
        assert_eq!(retired[0].steps, 5);
        assert_eq!(lanes.free_lanes(), 1);
        // The freed lane admits a new sample with its own budget.
        lanes.submit(&row(&x, 1), 3).unwrap();
        let second = drain(&mut lanes);
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].steps, 3);
        assert_eq!(second[0].id, LaneId(1));
    }

    #[test]
    fn membrane_readout_scores_match_solo_membrane_oracle() {
        let net = copy_net();
        let (x, _) = toy_data();
        let mut lanes = LaneEngine::new(&net, 2, Readout::Membrane, ExitPolicy::Off).unwrap();
        lanes.submit(&row(&x, 1), 6).unwrap();
        lanes.submit(&row(&x, 3), 6).unwrap();
        let mut outputs = drain(&mut lanes);
        outputs.sort_by_key(|o| o.id);
        // Membrane oracle: counts·thr + V after t steps, solo.
        for (i, sample) in [1usize, 3].iter().enumerate() {
            let mut solo = net.clone();
            solo.reset();
            let xs = Tensor::from_vec([1, 2], row(&x, *sample).data().to_vec()).unwrap();
            let mut counts: Option<Tensor> = None;
            for _ in 0..6 {
                let s = solo.step(&xs).unwrap();
                match &mut counts {
                    Some(c) => c.add_assign(&s).unwrap(),
                    None => counts = Some(s),
                }
            }
            let thr = solo.output_threshold().unwrap();
            let mut expected = counts.unwrap().scale(thr);
            expected
                .add_assign(solo.output_potential().unwrap())
                .unwrap();
            assert_eq!(outputs[i].scores, expected.into_vec(), "sample {sample}");
        }
    }

    #[test]
    fn invalid_sessions_and_submissions_are_rejected() {
        let net = copy_net();
        assert!(LaneEngine::new(&net, 0, Readout::SpikeCount, ExitPolicy::Off).is_err());
        let bad_policy = ExitPolicy::Adaptive {
            patience: 0,
            min_margin: 1.0,
            min_steps: 0,
        };
        assert!(LaneEngine::new(&net, 2, Readout::SpikeCount, bad_policy).is_err());
        let mut lanes = LaneEngine::new(&net, 2, Readout::SpikeCount, ExitPolicy::Off).unwrap();
        let sample = Tensor::from_vec([2], vec![0.5, 0.5]).unwrap();
        assert!(lanes.submit(&sample, 0).is_err(), "zero budget");
        lanes.submit(&sample, 4).unwrap();
        let mismatched = Tensor::from_vec([3], vec![0.5; 3]).unwrap();
        assert!(lanes.submit(&mismatched, 4).is_err(), "shape mismatch");
        // Stepping an idle engine is a no-op.
        let mut idle = LaneEngine::new(&net, 1, Readout::SpikeCount, ExitPolicy::Off).unwrap();
        assert!(idle.step().unwrap().is_empty());
        assert_eq!(idle.engine_steps(), 0);
    }

    #[test]
    fn a_sample_node_0_rejects_leaves_the_session_unchanged() {
        // Node 0 convolves 2 channels; a 3-channel sample fails in its op,
        // before any lane, membrane row or session shape is set.
        let conv = SynapticOp::conv(
            Tensor::ones([1, 2, 3, 3]),
            None,
            tcl_tensor::ops::ConvGeometry::square(3, 1, 1).unwrap(),
        )
        .unwrap();
        let net = SpikingNetwork::new(vec![
            SpikingNode::Spiking(SpikingLayer::new(
                conv,
                IfNeurons::new(1.0, ResetMode::Subtract),
            )),
            SpikingNode::Flatten,
        ]);
        let mut lanes = LaneEngine::new(&net, 2, Readout::SpikeCount, ExitPolicy::Off).unwrap();
        assert!(lanes.submit(&Tensor::zeros([3, 4, 4]), 5).is_err());
        assert_eq!(lanes.active(), 0);
        assert!(lanes.step().unwrap().is_empty());
        // A valid sample is still admitted and runs its full budget.
        lanes.submit(&Tensor::full([2, 4, 4], 0.05), 3).unwrap();
        let out = drain(&mut lanes);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].steps, 3);
        assert_eq!(out[0].scores.len(), 16);
        assert_eq!(lanes.engine_steps(), 3);
    }

    #[test]
    fn adaptive_lanes_exit_early_and_report_margins() {
        let net = copy_net();
        let (x, _) = toy_data();
        let policy = ExitPolicy::Adaptive {
            patience: 5,
            min_margin: 3.0,
            min_steps: 10,
        };
        let mut lanes = LaneEngine::new(&net, 4, Readout::SpikeCount, policy).unwrap();
        for i in 0..4 {
            lanes.submit(&row(&x, i), 100).unwrap();
        }
        let outputs = drain(&mut lanes);
        assert_eq!(outputs.len(), 4);
        assert!(outputs.iter().any(|o| o.early), "{outputs:?}");
        for o in &outputs {
            if o.early {
                assert!((10..100).contains(&o.steps), "{o:?}");
                assert!(o.margin >= 3.0, "{o:?}");
            }
        }
        // Early exit saved lane work vs running all four to the budget.
        assert!(lanes.lane_steps() < 4 * 100);
    }
}
