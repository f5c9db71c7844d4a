//! Shared scaffolding for the serving integration suites: a tiny identity
//! model, server construction helpers, a completion-recording backend, and
//! the virtual-clock drive loop.
//!
//! Every suite builds the same shape of world: a [`SimNet`] of scripted
//! clients, a [`Server`] on a [`VirtualClock`], and a [`LaneBackend`] over
//! an identity spiking network (class `k` is predicted for the sample whose
//! `k`-th feature dominates, so expected answers are readable off the
//! inputs).
#![allow(dead_code)] // each suite uses a different slice of this scaffolding

use std::cell::RefCell;
use std::rc::Rc;

use tcl_serve::sim::SimNet;
use tcl_serve::{
    Backend, BackendFactory, Completion, LaneBackend, ServeConfig, Server, VirtualClock,
};
use tcl_snn::{
    ExitPolicy, IfNeurons, Readout, ResetMode, SpikingLayer, SpikingNetwork, SpikingNode,
    SynapticOp,
};
use tcl_tensor::{Result, Tensor};

/// The adaptive policy every suite shares: early exit on a spike-count
/// margin of 2 held for 4 steps, never before step 6.
pub const ADAPTIVE: ExitPolicy = ExitPolicy::Adaptive {
    patience: 4,
    min_margin: 2.0,
    min_steps: 6,
};

/// One identity spiking layer, `features` in/out: the spike-count readout
/// predicts the dominant input feature.
pub fn diagonal_net(features: usize) -> SpikingNetwork {
    let mut weight = vec![0.0f32; features * features];
    for i in 0..features {
        weight[i * features + i] = 1.0;
    }
    let weight = Tensor::from_vec([features, features], weight).expect("identity weight");
    SpikingNetwork::new(vec![SpikingNode::Spiking(SpikingLayer::new(
        SynapticOp::linear(weight, None).unwrap(),
        IfNeurons::new(1.0, ResetMode::Subtract),
    ))])
}

/// Baseline configuration the suites specialize per scenario.
pub fn serve_cfg(features: usize, capacity: usize) -> ServeConfig {
    ServeConfig {
        capacity,
        queue_depth: 8,
        feat_dims: vec![features],
        policy: ADAPTIVE,
        max_steps: 100,
        us_per_step: 100,
        steps_per_tick: 8,
        max_body: 4096,
        head_timeout_us: 50_000,
        max_conns: 64,
        max_requests_per_conn: 64,
        idle_timeout_us: 200_000,
    }
}

/// A factory producing fresh [`LaneBackend`]s over a clone of `net`.
pub fn lane_factory(net: &SpikingNetwork, cfg: &ServeConfig, readout: Readout) -> BackendFactory {
    let net = net.clone();
    let capacity = cfg.capacity;
    let feat_dims = cfg.feat_dims.clone();
    let policy = cfg.policy;
    Box::new(move || {
        Box::new(
            LaneBackend::new(&net, capacity, &feat_dims, readout, policy)
                .expect("lane backend builds"),
        )
    })
}

/// A backend decorator recording every completion (in retirement order)
/// so suites can compare served results bitwise against batch oracles.
pub struct RecordingBackend {
    inner: Box<dyn Backend>,
    log: Rc<RefCell<Vec<Completion>>>,
}

impl RecordingBackend {
    pub fn wrap(inner: Box<dyn Backend>, log: Rc<RefCell<Vec<Completion>>>) -> Box<dyn Backend> {
        Box::new(RecordingBackend { inner, log })
    }
}

impl Backend for RecordingBackend {
    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn active(&self) -> usize {
        self.inner.active()
    }

    fn submit(&mut self, sample: &[f32], budget: usize) -> Result<u64> {
        self.inner.submit(sample, budget)
    }

    fn step(&mut self) -> Result<Vec<Completion>> {
        let completions = self.inner.step()?;
        self.log.borrow_mut().extend(completions.iter().cloned());
        Ok(completions)
    }

    fn engine_steps(&self) -> u64 {
        self.inner.engine_steps()
    }

    fn lane_steps(&self) -> u64 {
        self.inner.lane_steps()
    }
}

/// Ticks the server (advancing the virtual clock by `tick_us` between
/// ticks) until it is idle and no scripted client is still waiting to
/// connect; panics if that takes more than `max_ticks`.
pub fn drive(
    server: &mut Server<VirtualClock>,
    clock: &VirtualClock,
    net: &SimNet,
    tick_us: u64,
    max_ticks: usize,
) -> usize {
    for tick in 0..max_ticks {
        server.tick();
        if server.idle() && net.pending() == 0 {
            return tick + 1;
        }
        clock.advance(tick_us);
    }
    panic!("server failed to go idle within {max_ticks} ticks");
}

/// Pulls one field out of a JSON response body.
pub fn body_field(body: &str, field: &str) -> f64 {
    let value = tcl_telemetry::json::parse_line(body.trim()).expect("response body is JSON");
    value
        .get(field)
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|| panic!("field {field} missing in {body}"))
}

/// Pulls one boolean field out of a JSON response body.
pub fn body_bool(body: &str, field: &str) -> bool {
    let value = tcl_telemetry::json::parse_line(body.trim()).expect("response body is JSON");
    match value.get(field) {
        Some(tcl_telemetry::json::JsonValue::Bool(b)) => *b,
        other => panic!("field {field} not a bool in {body}: {other:?}"),
    }
}

/// Solo oracle: runs one sample alone through a capacity-1 [`tcl_snn::LaneEngine`]
/// and returns its retirement output (the bitwise reference for a lane's
/// trajectory regardless of batchmates).
pub fn solo_lane_output(
    net: &SpikingNetwork,
    sample: &[f32],
    readout: Readout,
    policy: ExitPolicy,
    budget: usize,
) -> tcl_snn::LaneOutput {
    let mut engine = tcl_snn::LaneEngine::new(net, 1, readout, policy).expect("solo engine");
    let tensor = Tensor::from_vec([sample.len()], sample.to_vec()).expect("solo sample");
    engine.submit(&tensor, budget).expect("solo submit");
    loop {
        let mut done = engine.step().expect("solo step");
        if let Some(out) = done.pop() {
            return out;
        }
    }
}
