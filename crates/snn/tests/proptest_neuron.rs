//! Property-based tests of the IF neuron's rate-coding contract.

use proptest::prelude::*;
use tcl_snn::{IfNeurons, ResetMode, SpikingLayer, SpikingNetwork, SpikingNode, SynapticOp};
use tcl_tensor::Tensor;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn subtract_reset_spike_count_tracks_rate_within_one(
        z in 0.0f32..1.0,
        thr in 0.2f32..3.0,
        steps in 10usize..300,
    ) {
        // For constant current 0 ≤ z, spikes after T steps must be within
        // ±1 of z·T/thr (clamped to T) — the rate-coding identity the whole
        // conversion rests on.
        let mut bank = IfNeurons::new(thr, ResetMode::Subtract);
        let current = Tensor::from_slice(&[z]);
        let mut count = 0.0f32;
        for _ in 0..steps {
            count += bank.step(&current).unwrap().at(0);
        }
        let expected = (z * steps as f32 / thr).min(steps as f32);
        prop_assert!((count - expected).abs() <= 1.0,
            "z={} thr={} T={}: count {} vs expected {}", z, thr, steps, count, expected);
    }

    #[test]
    fn zero_reset_never_outfires_subtract_reset(
        z in 0.0f32..2.0,
        steps in 10usize..200,
    ) {
        let current = Tensor::from_slice(&[z]);
        let mut sub = IfNeurons::new(1.0, ResetMode::Subtract);
        let mut zero = IfNeurons::new(1.0, ResetMode::Zero);
        let (mut cs, mut cz) = (0.0f32, 0.0f32);
        for _ in 0..steps {
            cs += sub.step(&current).unwrap().at(0);
            cz += zero.step(&current).unwrap().at(0);
        }
        prop_assert!(cz <= cs + 1e-6, "zero-reset fired more: {} vs {}", cz, cs);
    }

    #[test]
    fn spikes_are_binary_and_counted_exactly(
        values in prop::collection::vec(-2.0f32..2.0, 1..32),
        steps in 1usize..50,
    ) {
        let mut bank = IfNeurons::new(1.0, ResetMode::Subtract);
        let current = Tensor::from_slice(&values);
        let mut manual = 0u64;
        for _ in 0..steps {
            let s = bank.step(&current).unwrap();
            for &v in s.data() {
                prop_assert!(v == 0.0 || v == 1.0);
                manual += v as u64;
            }
        }
        prop_assert_eq!(bank.spikes_emitted(), manual);
        prop_assert_eq!(bank.steps(), steps as u64);
    }

    #[test]
    fn neurons_process_batch_elements_independently(
        a in 0.0f32..1.0,
        b in 0.0f32..1.0,
        steps in 5usize..100,
    ) {
        // Running [a, b] together equals running a and b separately.
        let mut joint = IfNeurons::new(1.0, ResetMode::Subtract);
        let mut only_a = IfNeurons::new(1.0, ResetMode::Subtract);
        let mut only_b = IfNeurons::new(1.0, ResetMode::Subtract);
        let (mut ja, mut jb, mut sa, mut sb) = (0.0, 0.0, 0.0, 0.0);
        for _ in 0..steps {
            let s = joint.step(&Tensor::from_slice(&[a, b])).unwrap();
            ja += s.at(0);
            jb += s.at(1);
            sa += only_a.step(&Tensor::from_slice(&[a])).unwrap().at(0);
            sb += only_b.step(&Tensor::from_slice(&[b])).unwrap().at(0);
        }
        prop_assert_eq!(ja, sa);
        prop_assert_eq!(jb, sb);
    }

    #[test]
    fn network_total_spikes_equals_sum_of_nodes(
        w in 0.1f32..1.0,
        steps in 1usize..60,
    ) {
        let layer = |weight: f32| SpikingNode::Spiking(SpikingLayer::new(
            SynapticOp::linear(Tensor::from_vec([1, 1], vec![weight]).unwrap(), None).unwrap(),
            IfNeurons::new(1.0, ResetMode::Subtract),
        ));
        let mut net = SpikingNetwork::new(vec![layer(w), layer(1.0)]);
        let x = Tensor::from_vec([1, 1], vec![0.8]).unwrap();
        for _ in 0..steps {
            net.step(&x).unwrap();
        }
        let total: u64 = net.spikes_per_node().iter().sum();
        prop_assert_eq!(net.total_spikes(), total);
    }

    /// The IF membrane update is elementwise (add / compare / subtract, no
    /// fusion), so every SIMD dispatch level must replay the scalar
    /// trajectory **bitwise** — spikes and residual potentials both. This
    /// is what lets golden SNN numbers survive runtime dispatch.
    #[test]
    fn if_step_trajectories_are_bitwise_identical_across_simd_levels(
        neurons in 1usize..70,
        thr in 0.2f32..2.0,
        steps in 1usize..30,
        subtract in 0u8..2,
        seed in 0u64..1_000_000,
    ) {
        let reset = if subtract == 1 { ResetMode::Subtract } else { ResetMode::Zero };
        let mut rng = tcl_tensor::SeededRng::new(seed);
        let currents: Vec<Tensor> = (0..steps)
            .map(|_| rng.uniform_tensor([neurons], -0.3, 1.2))
            .collect();
        let run = |level: tcl_tensor::simd::Level| {
            tcl_tensor::simd::with_level(level, || {
                let mut bank = IfNeurons::new(thr, reset);
                let mut spike_bits: Vec<u32> = Vec::new();
                for z in &currents {
                    let s = bank.step(z).unwrap();
                    spike_bits.extend(s.data().iter().map(|v| v.to_bits()));
                }
                let potential_bits: Vec<u32> = bank
                    .potential()
                    .unwrap()
                    .data()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                (spike_bits, potential_bits)
            })
        };
        let reference = run(tcl_tensor::simd::Level::Scalar);
        for level in tcl_tensor::simd::Level::available() {
            let got = run(level);
            prop_assert_eq!(
                &got, &reference,
                "level {} diverged (neurons={} thr={} steps={})",
                level.name(), neurons, thr, steps
            );
        }
    }

    #[test]
    fn reset_makes_presentations_independent(
        z in 0.0f32..1.0,
        steps in 5usize..60,
    ) {
        let current = Tensor::from_slice(&[z]);
        let mut bank = IfNeurons::new(1.0, ResetMode::Subtract);
        let mut first = 0.0f32;
        for _ in 0..steps {
            first += bank.step(&current).unwrap().at(0);
        }
        bank.reset();
        let mut second = 0.0f32;
        for _ in 0..steps {
            second += bank.step(&current).unwrap().at(0);
        }
        prop_assert_eq!(first, second);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `if_step` counts the spikes it writes per chunk, and the bank sums
    /// the chunks' counts: `spikes_emitted` must still equal the ones in
    /// the returned rasters. The bank holds 40,000 neurons, enough to fan
    /// out in chunks under `TCL_THREADS=4`; NaN and infinite currents are
    /// mixed in. (The `snn.spikes` counter, global to the process and so
    /// raced by this file's other tests, is checked the same way in
    /// `potential_gauges.rs`.)
    #[test]
    fn spikes_emitted_equals_the_rasters(
        seed in 0u64..1_000_000,
        steps in 1usize..5,
        zero_reset in 0u8..2,
    ) {
        let mut rng = tcl_tensor::SeededRng::new(seed);
        let mut z = Tensor::from_fn([4, 10_000], |_| rng.normal() * 0.7);
        for (i, v) in z.data_mut().iter_mut().enumerate().step_by(997) {
            *v = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][i % 3];
        }
        let reset = if zero_reset == 1 { ResetMode::Zero } else { ResetMode::Subtract };
        let mut bank = IfNeurons::new(0.9, reset);
        let mut ones = 0u64;
        for _ in 0..steps {
            let s = bank.step(&z).unwrap();
            ones += s.data().iter().filter(|&&v| v == 1.0).count() as u64;
        }
        prop_assert!(ones > 0);
        prop_assert_eq!(bank.spikes_emitted(), ones);
    }
}
