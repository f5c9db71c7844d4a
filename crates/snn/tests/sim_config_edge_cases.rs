//! Edge-case coverage for `SimConfig` validation.
//!
//! All `SimConfig` fields are public (literal construction and serde both
//! need that), so a config can reach the evaluators without ever passing
//! through `SimConfig::new`. Historically an empty checkpoint list then hit
//! an `expect("validated nonempty")` panic inside `evaluate`; these tests
//! pin the contract that *every* entry point re-validates and returns a
//! clear error instead.

use tcl_snn::{
    evaluate, Engine, ExitPolicy, IfNeurons, InputCoding, Readout, ResetMode, SimConfig,
    SpikingLayer, SpikingNetwork, SpikingNode, SynapticOp,
};
use tcl_tensor::Tensor;

fn tiny_net() -> SpikingNetwork {
    SpikingNetwork::new(vec![SpikingNode::Spiking(SpikingLayer::new(
        SynapticOp::linear(
            Tensor::from_vec([2, 2], vec![1.0, 0.0, 0.0, 1.0]).unwrap(),
            None,
        )
        .unwrap(),
        IfNeurons::new(1.0, ResetMode::Subtract),
    ))])
}

fn raw_config(checkpoints: Vec<usize>, batch_size: usize) -> SimConfig {
    SimConfig {
        checkpoints,
        batch_size,
        readout: Readout::SpikeCount,
        input_coding: InputCoding::Analog,
    }
}

#[test]
fn validate_accepts_what_new_accepts() {
    assert!(raw_config(vec![1], 1).validate().is_ok());
    assert!(raw_config(vec![50, 100, 150, 200, 250], 32)
        .validate()
        .is_ok());
    assert!(SimConfig::table1(8).unwrap().validate().is_ok());
}

#[test]
fn validate_rejects_empty_checkpoints_with_a_clear_message() {
    let err = raw_config(vec![], 4).validate().unwrap_err();
    assert!(err.to_string().contains("checkpoint"), "{err}");
}

#[test]
fn validate_rejects_unsorted_duplicate_and_zero_checkpoints() {
    for bad in [
        vec![0],
        vec![0, 5],
        vec![5, 3],
        vec![5, 5],
        vec![10, 20, 15],
    ] {
        let err = raw_config(bad.clone(), 4).validate().unwrap_err();
        assert!(
            err.to_string().contains("strictly increasing"),
            "{bad:?}: {err}"
        );
    }
}

#[test]
fn validate_rejects_zero_batch_size() {
    let err = raw_config(vec![5], 0).validate().unwrap_err();
    assert!(err.to_string().contains("batch size"), "{err}");
}

#[test]
fn evaluate_reports_errors_for_bypassed_construction_instead_of_panicking() {
    let net = tiny_net();
    let images = Tensor::from_vec([2, 2], vec![0.9, 0.1, 0.1, 0.9]).unwrap();
    let labels = vec![0, 1];
    // Empty checkpoints: the historical panic path.
    let err = evaluate(&net, &images, &labels, &raw_config(vec![], 2)).unwrap_err();
    assert!(err.to_string().contains("checkpoint"), "{err}");
    // Unsorted checkpoints and zero batch size are rejected the same way.
    assert!(evaluate(&net, &images, &labels, &raw_config(vec![9, 4], 2)).is_err());
    assert!(evaluate(&net, &images, &labels, &raw_config(vec![4], 0)).is_err());
}

#[test]
fn engine_validates_configs_before_touching_the_pool() {
    let net = tiny_net();
    let images = Tensor::from_vec([2, 2], vec![0.9, 0.1, 0.1, 0.9]).unwrap();
    let labels = vec![0, 1];
    let mut engine = Engine::with_threads(4);
    let err = engine
        .evaluate(
            &net,
            &images,
            &labels,
            &raw_config(vec![], 2),
            ExitPolicy::Off,
        )
        .unwrap_err();
    assert!(err.to_string().contains("checkpoint"), "{err}");
    // The engine stays usable after a rejected config.
    let good = SimConfig::new(vec![10], 2, Readout::SpikeCount).unwrap();
    let result = engine
        .evaluate(&net, &images, &labels, &good, ExitPolicy::Off)
        .unwrap();
    assert_eq!(result.sweep.final_accuracy(), 1.0);
}

#[test]
fn mutating_a_validated_config_requires_revalidation() {
    // The builder path validates once, but the public fields allow later
    // mutation; validate() is the cheap recheck call sites can lean on.
    let mut cfg = SimConfig::table1(16).unwrap();
    assert!(cfg.validate().is_ok());
    cfg.checkpoints.clear();
    assert!(cfg.validate().is_err());
    cfg.checkpoints = vec![10, 20];
    assert!(cfg.validate().is_ok());
    cfg.batch_size = 0;
    assert!(cfg.validate().is_err());
}
