//! The lane engine steps in a serial scope: one level of parallelism.
//!
//! A serving process drives `LaneEngine` from one thread with a few lanes;
//! a kernel that fans out per call there spawns scoped threads on every
//! conv, pool and IF step, which costs more than it computes at these batch
//! sizes. `LaneEngine::submit` and `LaneEngine::step` therefore run under
//! `par::with_serial`, and no `par.worker` span opens below them.
//!
//! The control runs a bare `SpikingNetwork::step` on the same batch outside
//! any serial scope: with two or more threads (`TCL_THREADS=4` in CI) it
//! must open a `par.worker` span, or the first assertion proves nothing.
//! Both captures hold the telemetry test lock.

use tcl_snn::{
    ExitPolicy, IfNeurons, LaneEngine, Readout, ResetMode, SpikingLayer, SpikingNetwork,
    SpikingNode, SynapticOp,
};
use tcl_telemetry::test_support::with_captured;
use tcl_tensor::ops::ConvGeometry;
use tcl_tensor::{par, SeededRng, Tensor};

const LANES: usize = 4;
const IMAGE: [usize; 3] = [3, 32, 32];

fn spiking(op: SynapticOp) -> SpikingNode {
    SpikingNode::Spiking(SpikingLayer::new(
        op,
        IfNeurons::new(1.0, ResetMode::Subtract),
    ))
}

fn conv(rng: &mut SeededRng, out_c: usize, in_c: usize) -> SpikingNode {
    spiking(
        SynapticOp::conv(
            rng.uniform_tensor([out_c, in_c, 3, 3], -0.2, 0.4),
            Some(rng.uniform_tensor([out_c], 0.0, 0.1)),
            ConvGeometry::square(3, 1, 1).unwrap(),
        )
        .unwrap(),
    )
}

/// The geometry of a width-8 cnn6 on 32×32 images.
fn cnn6() -> SpikingNetwork {
    let mut rng = SeededRng::new(9);
    let pool = || SpikingNode::AvgPool {
        kernel: 2,
        stride: 2,
    };
    SpikingNetwork::new(vec![
        conv(&mut rng, 8, 3),
        conv(&mut rng, 8, 8),
        pool(),
        conv(&mut rng, 16, 8),
        conv(&mut rng, 16, 16),
        pool(),
        SpikingNode::Flatten,
        spiking(SynapticOp::linear(rng.uniform_tensor([64, 1024], -0.05, 0.1), None).unwrap()),
        spiking(SynapticOp::linear(rng.uniform_tensor([10, 64], -0.2, 0.4), None).unwrap()),
    ])
}

fn par_workers(lines: &[String]) -> usize {
    lines
        .iter()
        .filter(|l| l.contains("\"type\":\"span\"") && l.contains("\"name\":\"par.worker\""))
        .count()
}

#[test]
fn lane_engine_opens_no_par_worker_span() {
    let net = cnn6();
    let batch = SeededRng::new(4).uniform_tensor([LANES, IMAGE[0], IMAGE[1], IMAGE[2]], 0.0, 1.0);
    let row = batch.len() / LANES;
    let (steps, lines) = with_captured(|| {
        let mut lanes = LaneEngine::new(&net, LANES, Readout::SpikeCount, ExitPolicy::Off).unwrap();
        for i in 0..LANES {
            let sample =
                Tensor::from_vec(IMAGE, batch.data()[i * row..(i + 1) * row].to_vec()).unwrap();
            lanes.submit(&sample, 3).unwrap();
        }
        while lanes.active() > 0 {
            lanes.step().unwrap();
        }
        lanes.engine_steps()
    });
    assert_eq!(steps, 3);
    assert_eq!(par_workers(&lines), 0, "a lane step fanned out");

    let threads = par::current().threads();
    let ((), control) = with_captured(|| {
        net.clone().step(&batch).unwrap();
    });
    if threads >= 2 {
        assert!(
            par_workers(&control) > 0,
            "control: a bare step at {threads} threads opened no par.worker span"
        );
    }
}
