//! Property-based tests for layer forward/backward correctness.

use proptest::prelude::*;
use tcl_nn::layers::{Clip, Conv2d, Linear, Relu};
use tcl_nn::{
    softmax_cross_entropy, Layer, Mode, Network, Sgd, TrainCheckpoint, TrainConfig, TrainReport,
};
use tcl_tensor::{ops, SeededRng, Tensor};

fn rng_tensor(shape: Vec<usize>, seed: u64, scale: f32) -> Tensor {
    SeededRng::new(seed).uniform_tensor(shape, -scale, scale)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn linear_forward_matches_matmul(
        batch in 1usize..5,
        inf in 1usize..8,
        outf in 1usize..8,
        seed in 0u64..1000,
    ) {
        let mut rng = SeededRng::new(seed);
        let mut fc = Linear::new(inf, outf, true, &mut rng).unwrap();
        let x = rng.uniform_tensor([batch, inf], -1.0, 1.0);
        let y = fc.forward(&x, Mode::Eval).unwrap();
        let manual = ops::matmul_nt(&x, &fc.weight.value).unwrap();
        for r in 0..batch {
            for c in 0..outf {
                let expected = manual.at2(r, c) + fc.bias.as_ref().unwrap().value.at(c);
                prop_assert!((y.at2(r, c) - expected).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn conv_input_gradient_matches_finite_difference(
        cin in 1usize..3,
        cout in 1usize..3,
        hw in 4usize..7,
        stride in 1usize..3,
        seed in 0u64..1000,
    ) {
        let mut rng = SeededRng::new(seed);
        let mut conv = Conv2d::new(cin, cout, 3, stride, 1, true, &mut rng).unwrap();
        let x = rng.uniform_tensor([1, cin, hw, hw], -1.0, 1.0);
        let y = conv.forward(&x, Mode::Train).unwrap();
        let gout = Tensor::ones(y.shape().clone());
        let gin = conv.backward(&gout).unwrap();
        let eps = 1e-2f32;
        let idx = (seed as usize * 7) % x.len();
        let mut xp = x.clone();
        xp.data_mut()[idx] += eps;
        let mut xm = x.clone();
        xm.data_mut()[idx] -= eps;
        let fp = conv.forward(&xp, Mode::Eval).unwrap().sum();
        let fm = conv.forward(&xm, Mode::Eval).unwrap().sum();
        let fd = (fp - fm) / (2.0 * eps);
        prop_assert!((gin.at(idx) - fd).abs() < 2e-2,
            "idx {} analytic {} vs fd {}", idx, gin.at(idx), fd);
    }

    #[test]
    fn relu_clip_composition_is_clamp(
        len in 1usize..64,
        lambda in 0.1f32..5.0,
        seed in 0u64..1000,
    ) {
        let x = rng_tensor(vec![len], seed, 10.0);
        let mut relu = Relu::new();
        let mut clip = Clip::new(lambda);
        let y = clip.forward(&relu.forward(&x, Mode::Eval), Mode::Eval);
        for (i, &v) in x.data().iter().enumerate() {
            prop_assert!((y.at(i) - v.clamp(0.0, lambda)).abs() < 1e-6);
        }
    }

    #[test]
    fn clip_is_idempotent(
        len in 1usize..64,
        lambda in 0.1f32..5.0,
        seed in 0u64..1000,
    ) {
        let x = rng_tensor(vec![len], seed, 10.0);
        let mut clip = Clip::new(lambda);
        let once = clip.forward(&x, Mode::Eval);
        let twice = clip.forward(&once, Mode::Eval);
        prop_assert!(once.max_abs_diff(&twice).unwrap() < 1e-7);
    }

    #[test]
    fn cross_entropy_is_nonnegative_and_grad_sums_to_zero(
        batch in 1usize..6,
        classes in 2usize..8,
        seed in 0u64..1000,
    ) {
        let logits = rng_tensor(vec![batch, classes], seed, 4.0);
        let labels: Vec<usize> = (0..batch).map(|i| (i + seed as usize) % classes).collect();
        let out = softmax_cross_entropy(&logits, &labels).unwrap();
        prop_assert!(out.loss >= 0.0);
        for r in 0..batch {
            let s: f32 = out.grad.data()[r * classes..(r + 1) * classes].iter().sum();
            prop_assert!(s.abs() < 1e-5);
        }
    }

    #[test]
    fn sgd_with_zero_gradient_and_no_decay_is_identity(
        inf in 1usize..6,
        outf in 1usize..6,
        seed in 0u64..1000,
    ) {
        let mut rng = SeededRng::new(seed);
        let mut net = Network::new(vec![Layer::Linear(
            Linear::new(inf, outf, true, &mut rng).unwrap(),
        )]);
        let mut before = Vec::new();
        net.visit_params(&mut |p| before.push(p.value.clone()));
        net.zero_grad();
        Sgd::new(0.5).with_momentum(0.9).step(&mut net);
        let mut after = Vec::new();
        net.visit_params(&mut |p| after.push(p.value.clone()));
        for (b, a) in before.iter().zip(&after) {
            prop_assert_eq!(b, a);
        }
    }

    #[test]
    fn one_sgd_step_on_fixed_batch_reduces_loss(
        seed in 0u64..300,
    ) {
        let mut rng = SeededRng::new(seed);
        let mut net = Network::new(vec![
            Layer::Linear(Linear::new(3, 8, true, &mut rng).unwrap()),
            Layer::Relu(Relu::new()),
            Layer::Linear(Linear::new(8, 2, true, &mut rng).unwrap()),
        ]);
        let x = rng.uniform_tensor([6, 3], -1.0, 1.0);
        let labels: Vec<usize> = (0..6).map(|i| i % 2).collect();
        let logits = net.forward(&x, Mode::Train).unwrap();
        let before = softmax_cross_entropy(&logits, &labels).unwrap();
        net.zero_grad();
        net.forward(&x, Mode::Train).unwrap();
        let out = softmax_cross_entropy(&net.forward(&x, Mode::Train).unwrap(), &labels).unwrap();
        net.backward(&out.grad).unwrap();
        Sgd::new(0.01).step(&mut net);
        let logits_after = net.forward(&x, Mode::Eval).unwrap();
        let after = softmax_cross_entropy(&logits_after, &labels).unwrap();
        // A small gradient step on the same batch cannot increase the loss
        // by much; typically it decreases. Allow tiny numerical slack.
        prop_assert!(after.loss <= before.loss + 1e-3,
            "loss went {} -> {}", before.loss, after.loss);
    }

    #[test]
    fn io_roundtrip_preserves_network_function(
        hidden in 1usize..10,
        lambda in 0.5f32..4.0,
        seed in 0u64..1000,
    ) {
        let mut rng = SeededRng::new(seed);
        let net = Network::new(vec![
            Layer::Linear(Linear::new(4, hidden, true, &mut rng).unwrap()),
            Layer::Relu(Relu::new()),
            Layer::Clip(Clip::new(lambda)),
            Layer::Linear(Linear::new(hidden, 3, true, &mut rng).unwrap()),
        ]);
        let config = TrainConfig::standard(1, 1, 0.05, &[]).unwrap();
        let report = TrainReport { epochs: Vec::new() };
        let ckpt = TrainCheckpoint::capture(&net, &rng, &report, &config, 0);
        let back = TrainCheckpoint::from_bytes(&ckpt.to_bytes().unwrap()).unwrap().network;
        let x = rng.uniform_tensor([3, 4], -1.0, 1.0);
        let ya = net.clone().forward(&x, Mode::Eval).unwrap();
        let yb = back.clone().forward(&x, Mode::Eval).unwrap();
        prop_assert!(ya.max_abs_diff(&yb).unwrap() < 1e-6);
    }
}
