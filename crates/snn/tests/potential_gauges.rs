//! The `snn.potential_min`/`max` gauges against a scalar-fold oracle, and
//! the `snn.spikes` counter against the spike rasters.
//!
//! With metrics on, every IF step sets the two gauges to its bank's
//! membrane range. The range is folded in vector blocks; this test checks
//! that over several steps of a small conv → IF → pool → linear → IF net
//! the gauges' last/min/max are exactly what the plain scalar
//! `f32::min`/`f32::max` fold over each bank's `potential()` gives.

use tcl_snn::{IfNeurons, ResetMode, SpikingLayer, SpikingNetwork, SpikingNode, SynapticOp};
use tcl_telemetry::test_support::{reset_metrics, with_captured};
use tcl_telemetry::{metrics_snapshot, MetricSnapshot};
use tcl_tensor::ops::ConvGeometry;
use tcl_tensor::{SeededRng, Tensor};

fn spiking(op: SynapticOp) -> SpikingNode {
    SpikingNode::Spiking(SpikingLayer::new(
        op,
        IfNeurons::new(1.0, ResetMode::Subtract),
    ))
}

/// conv 2→4 (3×3, pad 1) → IF → 2×2 avg-pool → flatten → linear 36→3 → IF,
/// with weights of both signs so the membranes go negative too.
fn net(rng: &mut SeededRng) -> SpikingNetwork {
    let geom = ConvGeometry::square(3, 1, 1).unwrap();
    let conv = SynapticOp::conv(
        rng.uniform_tensor([4, 2, 3, 3], -0.6, 0.7),
        Some(rng.uniform_tensor([4], -0.1, 0.1)),
        geom,
    )
    .unwrap();
    let linear = SynapticOp::linear(
        rng.uniform_tensor([3, 36], -0.8, 0.9),
        Some(rng.uniform_tensor([3], -0.1, 0.1)),
    )
    .unwrap();
    SpikingNetwork::new(vec![
        spiking(conv),
        SpikingNode::AvgPool {
            kernel: 2,
            stride: 2,
        },
        SpikingNode::Flatten,
        spiking(linear),
    ])
}

/// The membrane range as a scalar fold: one `min`/`max` per neuron.
fn scalar_range(v: &[f32]) -> (f32, f32) {
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for &x in v {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    (lo, hi)
}

/// A gauge's last/min/max over the sample sequence `values`.
fn gauge_of(values: &[f64]) -> (f64, f64, f64) {
    let last = *values.last().unwrap();
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (last, min, max)
}

fn gauge(snaps: &[MetricSnapshot], want: &str) -> (f64, f64, f64) {
    snaps
        .iter()
        .find_map(|s| match s {
            MetricSnapshot::Gauge {
                name,
                last,
                min,
                max,
            } if name == want => Some((*last, *min, *max)),
            _ => None,
        })
        .unwrap_or_else(|| panic!("gauge {want} not registered"))
}

#[test]
fn potential_gauges_equal_the_scalar_fold_over_every_if_step() {
    let mut rng = SeededRng::new(18);
    let mut net = net(&mut rng);
    // Five samples, so the conv bank holds 5·4·6·6 = 720 membranes (22
    // full 32-entry chunks plus a remainder) and the output bank 15.
    let x = Tensor::from_fn([5, 2, 6, 6], |_| rng.normal() * 0.8);
    let ((snaps, los, his), _lines) = with_captured(|| {
        reset_metrics();
        let (mut los, mut his) = (Vec::new(), Vec::new());
        for _ in 0..12 {
            net.step(&x).unwrap();
            // Each bank steps once per network step, in node order, so
            // its potential now is the one its gauge update saw.
            for node in net.nodes() {
                if let SpikingNode::Spiking(layer) = node {
                    let v = layer.neurons.potential().unwrap();
                    let (lo, hi) = scalar_range(v.data());
                    los.push(f64::from(lo));
                    his.push(f64::from(hi));
                }
            }
        }
        (metrics_snapshot(), los, his)
    });
    assert_eq!(los.len(), 24, "two banks over twelve steps");
    assert!(los.iter().any(|&lo| lo < 0.0), "membranes go negative");
    assert_eq!(gauge(&snaps, "snn.potential_min"), gauge_of(&los));
    assert_eq!(gauge(&snaps, "snn.potential_max"), gauge_of(&his));
}

/// A bank whose minimum sits in its last entry and whose maximum sits in
/// the tail past the last full 32-entry block, then the reverse: a fold
/// that dropped the last entry or the tail would miss one of them.
#[test]
fn extremes_in_the_last_entry_and_the_tail_are_folded() {
    // 3·32 + 7 entries: the tail is entries 96..103.
    let len = 103;
    for (lo_at, hi_at) in [(len - 1, len - 4), (len - 3, len - 1)] {
        let mut rng = SeededRng::new(lo_at as u64);
        let mut z: Vec<f32> = (0..len).map(|_| rng.normal() * 0.1).collect();
        z[lo_at] = -5.0;
        z[hi_at] = 0.75;
        let mut bank = IfNeurons::new(1.0, ResetMode::Subtract);
        let current = Tensor::from_vec([1, len], z.clone()).unwrap();
        let (snaps, _lines) = with_captured(|| {
            reset_metrics();
            bank.step(&current).unwrap();
            metrics_snapshot()
        });
        // Nothing reaches the threshold, so the membrane is the current.
        assert_eq!(bank.potential().unwrap().data(), &z[..]);
        assert_eq!(gauge(&snaps, "snn.potential_min"), (-5.0, -5.0, -5.0));
        assert_eq!(gauge(&snaps, "snn.potential_max"), (0.75, 0.75, 0.75));
    }
}

/// `if_step` returns each chunk's spike count and the bank adds the
/// counts up; the `snn.spikes` counter must equal the ones in the rasters,
/// on a 40,000-neuron bank that fans out under `TCL_THREADS=4`.
#[test]
fn spike_counter_equals_the_rasters() {
    let mut rng = SeededRng::new(19);
    let z = Tensor::from_fn([4, 10_000], |_| rng.normal() * 0.7);
    let mut bank = IfNeurons::new(0.9, ResetMode::Subtract);
    let ((ones, snaps), _lines) = with_captured(|| {
        reset_metrics();
        let mut ones = 0u64;
        for _ in 0..3 {
            let s = bank.step(&z).unwrap();
            ones += s.data().iter().filter(|&&v| v == 1.0).count() as u64;
        }
        (ones, metrics_snapshot())
    });
    let counter = snaps.iter().find_map(|m| match m {
        MetricSnapshot::Counter { name, value } if name == "snn.spikes" => Some(*value),
        _ => None,
    });
    assert!(ones > 0);
    assert_eq!(counter, Some(ones));
    assert_eq!(bank.spikes_emitted(), ones);
}
