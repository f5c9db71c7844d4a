//! Which synapses of a converted cnn6 run the event path.
//!
//! A synapse fed directly by an IF bank reads spikes that are exactly
//! `1.0`, so it takes the accumulate-only event path; the analog first
//! layer and the synapses behind average pooling read fractional currents
//! and keep the GEMM. This pins that split with the predicate
//! `SynapticOp::apply` itself uses, so a change that stops IF spikes being
//! exactly `1.0` fails here instead of silently losing the speedup.

use tcl_core::{Converter, NormStrategy};
use tcl_models::{Architecture, ModelConfig};
use tcl_snn::SpikingNode;
use tcl_tensor::{SeededRng, Tensor};

/// cnn6's node list: conv, conv, pool, conv, conv, pool, flatten, linear,
/// linear. Nodes 1, 4 and 8 read IF spikes; 0 reads the image, 3 and 7
/// read pooled spikes.
const EVENT_NODES: [usize; 3] = [1, 4, 8];
const GEMM_NODES: [usize; 3] = [0, 3, 7];

#[test]
fn if_fed_synapses_take_the_event_path_and_the_rest_keep_the_gemm() {
    let mut rng = SeededRng::new(0x5A1C);
    let cfg = ModelConfig::new((3, 16, 16), 10)
        .with_base_width(8)
        .with_clip_lambda(Some(2.0));
    let net = Architecture::Cnn6.build(&cfg, &mut rng).unwrap();
    let calibration = rng.uniform_tensor([16, 3, 16, 16], 0.0, 1.0);
    let mut snn = Converter::new(NormStrategy::TrainedClip)
        .convert(&net, &calibration)
        .unwrap()
        .snn;
    assert_eq!(snn.len(), 9);
    let stimulus = rng.uniform_tensor([4, 3, 16, 16], 0.0, 1.0);

    let mut event_steps = [0usize; 9];
    let mut fractional_steps = [0usize; 9];
    let steps = 48;
    for _ in 0..steps {
        let mut x: Tensor = stimulus.clone();
        for (i, node) in snn.nodes_mut().iter_mut().enumerate() {
            if let SpikingNode::Spiking(layer) = node {
                event_steps[i] += usize::from(layer.op.is_event_driven(&x));
                fractional_steps[i] += usize::from(x.data().iter().any(|&v| v != 0.0 && v != 1.0));
            }
            x = node.step(&x).unwrap();
        }
    }
    for i in EVENT_NODES {
        assert_eq!(event_steps[i], steps, "node {i} left the event path");
    }
    for i in GEMM_NODES {
        // Every step with a fractional input runs the GEMM, and the pooled
        // inputs are fractional on most steps once the banks fire.
        assert_eq!(
            event_steps[i] + fractional_steps[i],
            steps,
            "node {i}: {} event steps, {} fractional",
            event_steps[i],
            fractional_steps[i]
        );
        assert!(
            fractional_steps[i] * 2 > steps,
            "node {i} saw fractional input on only {} of {steps} steps",
            fractional_steps[i]
        );
    }
}
