//! Which synapses of a converted cnn6 run which current kernel.
//!
//! A synapse fed directly by an IF bank reads spikes that are exactly
//! `1.0`, so it takes the accumulate-only event path; the analog first
//! layer and the synapses behind average pooling read fractional currents
//! and miss it. Behind a pool, the convolution (node 3) takes the weighted
//! event path, one multiply-add per nonzero input, and the linear map
//! (node 7) the dense product from its packed weight panel. This pins that
//! split with the predicates `SynapticOp::apply` itself uses, so a change
//! that stops IF spikes being exactly `1.0`, or that moves a pooled-input
//! node off its kernel, fails here instead of silently losing the speedup.
//! The weighted path's gate depends on the SIMD level, so CI runs this
//! test at every level.

use tcl_core::{Converter, NormStrategy};
use tcl_models::{Architecture, ModelConfig};
use tcl_snn::{CurrentPath, SpikingNode};
use tcl_tensor::{SeededRng, Tensor};

/// cnn6's node list: conv, conv, pool, conv, conv, pool, flatten, linear,
/// linear. Nodes 1, 4 and 8 read IF spikes; 0 reads the image, 3 and 7
/// read pooled spikes.
const EVENT_NODES: [usize; 3] = [1, 4, 8];
const GEMM_NODES: [usize; 3] = [0, 3, 7];
/// The kernel each pooled-input node runs on a fractional input: node 3
/// the weighted event path (its inputs stay below the density crossover);
/// node 7 the packed dense product at or above the linear zero-skip's
/// 1-in-8 density gate, and the zero-skip below it.
fn pooled_path(node: usize, x: &Tensor) -> Option<CurrentPath> {
    let nonzero = x.data().iter().filter(|&&v| v != 0.0).count();
    match node {
        3 => Some(CurrentPath::WeightedEvents),
        7 if nonzero * 8 >= x.len() => Some(CurrentPath::Dense),
        7 => Some(CurrentPath::SparseRows),
        _ => None,
    }
}

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
    // Per pooled-input node: fractional steps on the expected kernel, and
    // those on the dense product.
    let mut pooled_path_steps = [0usize; 9];
    let mut dense_steps = [0usize; 9];
    let steps = 48;
    for _ in 0..steps {
        let mut x: Tensor = stimulus.clone();
        for (i, node) in snn.nodes_mut().iter_mut().enumerate() {
            if let SpikingNode::Spiking(layer) = node {
                let fractional = x.data().iter().any(|&v| v != 0.0 && v != 1.0);
                event_steps[i] += usize::from(layer.op.is_event_driven(&x));
                fractional_steps[i] += usize::from(fractional);
                if let Some(want) = pooled_path(i, &x).filter(|_| fractional) {
                    let path = layer.op.path(&x);
                    pooled_path_steps[i] += usize::from(path == want);
                    dense_steps[i] += usize::from(path == CurrentPath::Dense);
                }
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
    for i in [3, 7] {
        assert_eq!(
            pooled_path_steps[i], fractional_steps[i],
            "node {i}: expected kernel on {} of {} fractional steps",
            pooled_path_steps[i], fractional_steps[i]
        );
    }
    assert_eq!(dense_steps[3], 0, "node 3 ran the GEMM");
    assert!(
        dense_steps[7] > 0,
        "node 7 never ran the packed dense product"
    );
}
