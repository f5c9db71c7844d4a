//! Anytime-safety of the early-exit criterion.
//!
//! A retirement is *anytime-safe* when the class predicted at the exit step
//! is the class the fixed-T sweep would have predicted at full latency. With
//! a sane patience window the margin-stability criterion should almost never
//! fire on a sample whose prediction later flips; with an aggressively small
//! window (`patience = 1`) flips become possible and the suite records and
//! bounds the violation rate instead of demanding zero.

use proptest::prelude::*;
use tcl_snn::{
    Engine, ExitPolicy, IfNeurons, Readout, ResetMode, SimConfig, SpikingLayer, SpikingNetwork,
    SpikingNode, SynapticOp,
};
use tcl_tensor::{SeededRng, Tensor};

fn random_net(seed: u64, features: usize, hidden: usize, classes: usize) -> SpikingNetwork {
    let mut rng = SeededRng::new(seed);
    let l1 = SpikingLayer::new(
        SynapticOp::linear(
            rng.uniform_tensor([hidden, features], -0.8, 0.8),
            Some(rng.uniform_tensor([hidden], -0.1, 0.1)),
        )
        .unwrap(),
        IfNeurons::new(1.0, ResetMode::Subtract),
    );
    let l2 = SpikingLayer::new(
        SynapticOp::linear(rng.uniform_tensor([classes, hidden], -0.8, 0.8), None).unwrap(),
        IfNeurons::new(1.0, ResetMode::Subtract),
    );
    SpikingNetwork::new(vec![SpikingNode::Spiking(l1), SpikingNode::Spiking(l2)])
}

fn random_images(seed: u64, samples: usize, features: usize) -> (Tensor, Vec<usize>) {
    let mut rng = SeededRng::new(seed ^ 0xA11E);
    let images = rng.uniform_tensor([samples, features], 0.0, 1.0);
    let labels = (0..samples).map(|_| rng.below(3)).collect();
    (images, labels)
}

/// Runs one net under `policy` and counts exit/violation statistics against
/// the fixed-T reference predictions.
fn violations(seed: u64, policy: ExitPolicy) -> (usize, usize, usize) {
    let net = random_net(seed, 3, 5, 3);
    let (images, labels) = random_images(seed, 8, 3);
    let cfg = SimConfig::new(vec![64], 4, Readout::SpikeCount).unwrap();
    let mut engine = Engine::with_threads(1);
    let fixed = engine
        .evaluate(&net, &images, &labels, &cfg, ExitPolicy::Off)
        .unwrap();
    let adaptive = engine
        .evaluate(&net, &images, &labels, &cfg, policy)
        .unwrap();
    let mut exited = 0usize;
    let mut flipped = 0usize;
    for i in 0..labels.len() {
        if adaptive.exited[i] {
            exited += 1;
            if adaptive.predictions[i] != fixed.predictions[i] {
                flipped += 1;
            }
        } else {
            // A sample that rode to max_t saw exactly the fixed trajectory,
            // so its prediction must match bitwise.
            assert_eq!(
                adaptive.predictions[i], fixed.predictions[i],
                "non-exited sample {i} diverged (seed={seed})"
            );
        }
    }
    (labels.len(), exited, flipped)
}

/// Moderate patience: across a deterministic population of random networks,
/// exits are common and essentially never anytime-unsafe.
#[test]
fn moderate_patience_is_anytime_safe() {
    let policy = ExitPolicy::Adaptive {
        patience: 10,
        min_margin: 2.0,
        min_steps: 12,
    };
    let (mut total, mut exited, mut flipped) = (0, 0, 0);
    for seed in 0..30u64 {
        let (n, e, f) = violations(seed, policy);
        total += n;
        exited += e;
        flipped += f;
    }
    assert!(
        exited * 2 >= total,
        "criterion too timid: only {exited}/{total} samples exited"
    );
    // The margin-stability window should make flips vanishingly rare; allow
    // at most 2% of exits to flip so the bound is not knife-edged.
    assert!(
        flipped * 50 <= exited,
        "anytime violations too common: {flipped}/{exited} exits flipped"
    );
}

/// Aggressive patience = 1: exits fire at the first confident-looking step,
/// so flips can happen — record the rate and keep it loosely bounded. This
/// documents the trade-off rather than pretending it away.
#[test]
fn aggressive_patience_bounds_the_violation_rate() {
    // patience=1 fires on the first step whose margin clears one spike —
    // long before the rate code has converged. (min_margin=0 would be fully
    // degenerate: every sample exits at t=1 on all-zero tied scores.)
    let policy = ExitPolicy::Adaptive {
        patience: 1,
        min_margin: 1.0,
        min_steps: 2,
    };
    let (mut total, mut exited, mut flipped) = (0, 0, 0);
    for seed in 100..130u64 {
        let (n, e, f) = violations(seed, policy);
        total += n;
        exited += e;
        flipped += f;
    }
    assert!(exited > 0, "patience=1 should exit aggressively");
    // Even the most aggressive setting must not flip a majority: the margin
    // criterion still anchors exits to the eventual winner most of the time.
    assert!(
        flipped * 2 <= exited,
        "patience=1 flipped {flipped}/{exited} exits (total {total})"
    );
    println!("patience=1 anytime violation rate: {flipped}/{exited} exits ({total} samples)");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Structural invariants of every adaptive run: exit steps respect
    /// `min_steps` and `max_t`, `exited` is consistent with `exit_steps`,
    /// saved steps add up, and margins were tracked for active samples.
    #[test]
    fn adaptive_runs_keep_exit_bookkeeping_consistent(
        seed in 0u64..100_000,
        patience in 1usize..12,
        min_steps in 1usize..20,
    ) {
        let net = random_net(seed, 3, 4, 3);
        let (images, labels) = random_images(seed, 6, 3);
        let max_t = 48usize;
        let cfg = SimConfig::new(vec![16, max_t], 4, Readout::SpikeCount).unwrap();
        let policy = ExitPolicy::Adaptive { patience, min_margin: 1.0, min_steps };
        let mut engine = Engine::with_threads(2);
        let r = engine.evaluate(&net, &images, &labels, &cfg, policy).unwrap();
        let mut saved = 0u64;
        for (i, (&step, &e)) in r.exit_steps.iter().zip(&r.exited).enumerate() {
            prop_assert!(step >= 1 && step <= max_t, "sample {} step {}", i, step);
            if e {
                prop_assert!(step >= min_steps && step < max_t);
            } else {
                prop_assert_eq!(step, max_t);
            }
            saved += (max_t - step) as u64;
        }
        prop_assert_eq!(r.saved_steps, saved);
        prop_assert_eq!(r.margins.steps(), max_t);
        prop_assert_eq!(r.margins.active_at(0), labels.len() as u64);
        let mean = r.exit_steps.iter().sum::<usize>() as f32 / labels.len() as f32;
        prop_assert!((r.mean_exit_step - mean).abs() < 1e-4);
    }
}
