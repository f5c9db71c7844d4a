//! The inference backend behind the server: a thin trait over
//! [`tcl_snn::LaneEngine`].
//!
//! The server talks to a [`Backend`] rather than the lane engine directly
//! for one reason: crash containment. A backend step can fail (a poisoned
//! network, a killed engine worker, a shape bug), and the serving loop must
//! treat that as a *lane-engine restart*, not a process death — it rebuilds
//! the backend from its factory and re-submits every in-flight request from
//! step zero. The trait boundary is also where the fault-injection suite
//! plugs in a backend that dies on command.

use crate::server::{BackendFactory, ServeConfig};
use tcl_snn::{ExitPolicy, LaneEngine, Readout, SpikingNetwork};
use tcl_tensor::{Result, Shape, Tensor};

/// One finished inference: the lane engine's answer for a request.
#[derive(Debug, Clone)]
pub struct Completion {
    /// Backend-assigned lane id (matches the id returned by
    /// [`Backend::submit`]).
    pub lane: u64,
    /// Predicted class.
    pub pred: usize,
    /// Timesteps simulated.
    pub steps: usize,
    /// Whether the lane retired early on margin stability.
    pub early: bool,
    /// Top-1 minus top-2 readout margin at retirement.
    pub margin: f32,
    /// Per-class readout scores at retirement — exposed so equivalence
    /// suites can pin serving results bitwise against batch evaluation.
    pub scores: Vec<f32>,
}

/// A continuous-batching inference backend (see module docs).
pub trait Backend {
    /// Maximum concurrent lanes.
    fn capacity(&self) -> usize;

    /// Currently occupied lanes.
    fn active(&self) -> usize;

    /// Admits one flattened sample with a per-request step budget,
    /// returning its lane id.
    ///
    /// # Errors
    ///
    /// Fails when full or on a shape mismatch.
    fn submit(&mut self, sample: &[f32], budget: usize) -> Result<u64>;

    /// Advances every active lane one timestep.
    ///
    /// # Errors
    ///
    /// A failing step poisons the backend; the server rebuilds it.
    fn step(&mut self) -> Result<Vec<Completion>>;

    /// Shared timestep-loop iterations so far.
    fn engine_steps(&self) -> u64;

    /// Total lane-timesteps simulated (`Σ active lanes` over steps).
    fn lane_steps(&self) -> u64;
}

/// The production backend: a [`LaneEngine`] over a spiking network.
#[derive(Debug, Clone)]
pub struct LaneBackend {
    engine: LaneEngine,
    feat_dims: Vec<usize>,
}

impl LaneBackend {
    /// Builds a backend with `capacity` lanes over a clone of `net`.
    ///
    /// # Errors
    ///
    /// Propagates lane-engine construction errors (zero capacity, invalid
    /// policy).
    pub fn new(
        net: &SpikingNetwork,
        capacity: usize,
        feat_dims: &[usize],
        readout: Readout,
        policy: ExitPolicy,
    ) -> Result<Self> {
        Ok(LaneBackend {
            engine: LaneEngine::new(net, capacity, readout, policy)?,
            feat_dims: feat_dims.to_vec(),
        })
    }

    /// A factory of spike-count backends over `net` with `cfg`'s lanes,
    /// sample dims and exit policy: each call returns a copy of one backend
    /// built here, so a rebuild after a fault cannot fail.
    ///
    /// # Errors
    ///
    /// As [`LaneBackend::new`].
    pub fn factory(net: &SpikingNetwork, cfg: &ServeConfig) -> Result<BackendFactory> {
        let pristine = LaneBackend::new(
            net,
            cfg.capacity,
            &cfg.feat_dims,
            Readout::SpikeCount,
            cfg.policy,
        )?;
        Ok(Box::new(move || Box::new(pristine.clone())))
    }
}

impl Backend for LaneBackend {
    fn capacity(&self) -> usize {
        self.engine.capacity()
    }

    fn active(&self) -> usize {
        self.engine.active()
    }

    fn submit(&mut self, sample: &[f32], budget: usize) -> Result<u64> {
        let tensor = Tensor::from_vec(Shape::new(self.feat_dims.clone()), sample.to_vec())?;
        Ok(self.engine.submit(&tensor, budget)?.0)
    }

    fn step(&mut self) -> Result<Vec<Completion>> {
        Ok(self
            .engine
            .step()?
            .into_iter()
            .map(|o| Completion {
                lane: o.id.0,
                pred: o.pred,
                steps: o.steps,
                early: o.early,
                margin: o.margin,
                scores: o.scores,
            })
            .collect())
    }

    fn engine_steps(&self) -> u64 {
        self.engine.engine_steps()
    }

    fn lane_steps(&self) -> u64 {
        self.engine.lane_steps()
    }
}
