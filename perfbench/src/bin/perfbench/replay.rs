//! Per-node replay: one batch of the workload's own shape stepped through
//! the network node by node, timing each node's public calls, interleaved
//! step for step with a whole-network `SpikingNetwork::step` of the same
//! batch. The replay must reproduce the engines' readout bitwise, so the
//! node rows describe the computation the timed run did.

use std::time::{Duration, Instant};

use tcl_perfbench::{median, Metrics};
use tcl_snn::{Engine, ExitPolicy, LaneEngine, Readout, SimConfig, SpikingNetwork, SpikingNode};
use tcl_tensor::{ops, Tensor};

use crate::trace::Tracer;

/// Timesteps replayed (after as many warm-up steps on throwaway clones).
pub const STEPS: usize = 128;
/// How far the node rows' sum may fall from the whole-step time.
pub const NODE_SUM_TOLERANCE: f64 = 0.10;

#[derive(Default, Clone, Copy)]
struct NodeTime {
    synop: Duration,
    fire: Duration,
    whole: Duration,
    synops: u64,
}

/// Time recorded across every node so far.
fn node_total(times: &[NodeTime]) -> Duration {
    times.iter().map(|t| t.synop + t.fire + t.whole).sum()
}

/// Adds `spikes` into the running readout `counts`.
fn accumulate(counts: &mut Option<Tensor>, spikes: Tensor) {
    match counts {
        Some(c) => c.add_assign(&spikes).expect("readout shapes agree"),
        None => *counts = Some(spikes),
    }
}

/// Steps `net` once node by node, timing each public call into `times`.
fn step_by_node(net: &mut SpikingNetwork, input: &Tensor, times: &mut [NodeTime]) -> Tensor {
    // `SpikingNetwork::step` starts from a clone of its input as well.
    let mut x = input.clone();
    for (node, time) in net.nodes_mut().iter_mut().zip(times.iter_mut()) {
        x = match node {
            SpikingNode::Spiking(layer) => {
                time.synops += layer.op.synop_estimate(&x);
                let t = Instant::now();
                let current = layer.op.apply(&x).expect("synaptic op");
                let mid = Instant::now();
                let spikes = layer.neurons.step(&current).expect("IF step");
                time.synop += mid - t;
                time.fire += mid.elapsed();
                spikes
            }
            other => {
                let t = Instant::now();
                let out = other.step(&x).expect("node step");
                time.whole += t.elapsed();
                out
            }
        };
    }
    x
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Readout scores of a lane-engine run of `batch` (fixed budget, no early
/// exit), row-major in submit order.
fn lane_scores(snn: &SpikingNetwork, batch: &Tensor, steps: usize) -> Vec<u32> {
    let b = batch.dims()[0];
    let row = batch.len() / b;
    let mut lanes =
        LaneEngine::new(snn, b, Readout::SpikeCount, ExitPolicy::Off).expect("lane engine");
    let sample_dims = batch.dims()[1..].to_vec();
    for r in 0..b {
        let x = Tensor::from_vec(
            sample_dims.clone(),
            batch.data()[r * row..(r + 1) * row].to_vec(),
        )
        .expect("sample shape");
        lanes.submit(&x, steps).expect("free lane");
    }
    let mut rows: Vec<Option<Vec<f32>>> = vec![None; b];
    while lanes.active() > 0 {
        for out in lanes.step().expect("lane step") {
            rows[out.id.0 as usize] = Some(out.scores);
        }
    }
    rows.into_iter()
        .flat_map(Option::unwrap_or_default)
        .map(f32::to_bits)
        .collect()
}

/// Replays `batch` for [`STEPS`] steps; returns the per-node metrics and
/// the named checks.
pub fn run(
    snn: &SpikingNetwork,
    batch: &Tensor,
    tracer: &mut Tracer,
) -> (Metrics, Vec<(String, bool)>) {
    tracer.open("replay");
    let b = batch.dims()[0];
    tracer.attr("batch", b as f64);
    let mut whole = snn.clone();
    let mut parts = snn.clone();
    let mut times = vec![NodeTime::default(); snn.len()];
    for _ in 0..STEPS {
        whole.step(batch).expect("warm-up step");
        step_by_node(&mut parts, batch, &mut times);
    }
    whole.reset();
    parts.reset();
    times.fill(NodeTime::default());

    let mut step_time = Duration::ZERO;
    // Node sum over whole step, per pair of adjacent steps: a host
    // slowdown hits both halves of a pair alike.
    let mut pair_ratio = Vec::with_capacity(STEPS);
    let mut whole_counts = None;
    let mut part_counts = None;
    for _ in 0..STEPS {
        let t = Instant::now();
        let out = whole.step(batch).expect("network step");
        let dt = t.elapsed();
        step_time += dt;
        tracer.leaf("snn.step", t, dt);
        accumulate(&mut whole_counts, out);
        let before = node_total(&times);
        let t = Instant::now();
        let out = step_by_node(&mut parts, batch, &mut times);
        tracer.leaf("snn.step_by_node", t, t.elapsed());
        pair_ratio.push((node_total(&times) - before).as_secs_f64() / dt.as_secs_f64());
        accumulate(&mut part_counts, out);
    }
    tracer.close();
    let whole_counts = whole_counts.expect("replayed at least one step");
    let part_counts = part_counts.expect("replayed at least one step");

    let per_step_us = |d: Duration| d.as_secs_f64() * 1e6 / STEPS as f64;
    let mut m = Metrics::default();
    let spikes = parts.spikes_per_node();
    let neurons = parts.neurons_per_node();
    for (i, (node, t)) in snn.nodes().iter().zip(&times).enumerate() {
        let key = format!("snn.node{i}.{}", node.kind_name());
        match node {
            SpikingNode::Spiking(_) => {
                m.set(format!("{key}.synop_us"), per_step_us(t.synop), "us");
                m.set(format!("{key}.if_us"), per_step_us(t.fire), "us");
                m.set(
                    format!("snn.node{i}.synops"),
                    t.synops as f64 / STEPS as f64,
                    "count",
                );
                let rate = spikes[i] as f64 / (neurons[i].max(1) * STEPS) as f64;
                m.set(format!("snn.node{i}.spike_rate"), rate, "share");
            }
            _ => m.set(format!("{key}.us"), per_step_us(t.whole), "us"),
        }
    }
    let step_us = per_step_us(step_time);
    let sum_us = per_step_us(node_total(&times));
    m.set("snn.step_us", step_us, "us");
    m.set("snn.step_overhead_us", step_us - sum_us, "us");
    m.set("snn.replay_batch", b as f64, "samples");

    let replayed = bits(&part_counts);
    let engine_preds = Engine::with_threads(tcl_tensor::par::current().threads())
        .evaluate(
            snn,
            batch,
            &vec![0; b],
            &SimConfig::new(vec![STEPS], b, Readout::SpikeCount).expect("valid grid"),
            ExitPolicy::Off,
        )
        .expect("engine replay reference")
        .predictions;
    let replay_preds = ops::argmax_rows(&part_counts).expect("readout rows");
    let deviation = (median(&pair_ratio).unwrap_or(f64::NAN) - 1.0).abs();
    eprintln!(
        "[perfbench] replay: batch {b}, {STEPS} steps, step {step_us:.1} us, \
         node sum {sum_us:.1} us; median pair {:.1}% off",
        deviation * 100.0
    );
    let checks = vec![
        (
            "replay: node-by-node readout equals SpikingNetwork::step bitwise".to_string(),
            replayed == bits(&whole_counts),
        ),
        (
            "replay: readout equals LaneEngine scores bitwise".to_string(),
            replayed == lane_scores(snn, batch, STEPS),
        ),
        (
            "replay: predictions equal Engine::evaluate".to_string(),
            replay_preds == engine_preds,
        ),
        (
            format!(
                "replay: node rows sum to the whole step within {:.0}% (median of paired steps)",
                NODE_SUM_TOLERANCE * 100.0
            ),
            deviation <= NODE_SUM_TOLERANCE,
        ),
    ];
    (m, checks)
}
