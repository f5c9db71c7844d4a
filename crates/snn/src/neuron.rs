//! Integrate-and-fire neuron banks (Section 2 of the paper).

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use tcl_tensor::{par, simd, Shape, Tensor};

/// How the membrane potential is reset after a spike (Eq. 3 discussion).
///
/// Reset-to-zero discards the residual potential above threshold —
/// "considerable information loss" per Rueckauer et al. 2017 — so the paper
/// (and this reproduction's default) uses reset-by-subtraction. Both are
/// implemented; the `reset_mode` ablation harness quantifies the difference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ResetMode {
    /// `V ← V - V_thr` on spike (the paper's choice).
    #[default]
    Subtract,
    /// `V ← 0` on spike.
    Zero,
}

/// A bank of integrate-and-fire neurons sharing one threshold.
///
/// Implements Eqs. 1–3: each step the weighted input current `z` is added to
/// the membrane potential `V`; neurons at or above threshold emit a unit
/// spike and reset.
///
/// The bank is batch-shaped lazily: the first [`IfNeurons::step`] after a
/// [`IfNeurons::reset`] adopts the shape of its input current.
///
/// # Examples
///
/// ```
/// use tcl_snn::{IfNeurons, ResetMode};
/// use tcl_tensor::Tensor;
///
/// let mut bank = IfNeurons::new(1.0, ResetMode::Subtract);
/// let z = Tensor::from_slice(&[0.6]);
/// assert_eq!(bank.step(&z)?.data(), &[0.0]); // V = 0.6 < 1.0
/// assert_eq!(bank.step(&z)?.data(), &[1.0]); // V = 1.2 ≥ 1.0, spike
/// // Reset-by-subtraction keeps the 0.2 residue.
/// assert_eq!(bank.step(&z)?.data(), &[0.0]); // V = 0.8
/// # Ok::<(), tcl_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IfNeurons {
    threshold: f32,
    reset: ResetMode,
    potential: Option<Tensor>,
    spikes_emitted: u64,
    steps: u64,
}

impl IfNeurons {
    /// Creates a neuron bank with the given firing threshold.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not strictly positive.
    pub fn new(threshold: f32, reset: ResetMode) -> Self {
        assert!(threshold > 0.0, "threshold must be strictly positive");
        IfNeurons {
            threshold,
            reset,
            potential: None,
            spikes_emitted: 0,
            steps: 0,
        }
    }

    /// The firing threshold `V_thr`.
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// The reset behaviour.
    pub fn reset_mode(&self) -> ResetMode {
        self.reset
    }

    /// Clears membrane potentials and spike counters (start of a new
    /// stimulus presentation).
    pub fn reset(&mut self) {
        self.potential = None;
        self.spikes_emitted = 0;
        self.steps = 0;
    }

    /// Advances one timestep with input current `z`, returning the 0/1 spike
    /// tensor (Eq. 2).
    ///
    /// # Errors
    ///
    /// Returns a shape error if `z` disagrees with the potential shape
    /// established since the last reset.
    pub fn step(&mut self, current: &Tensor) -> Result<Tensor, tcl_tensor::TensorError> {
        if let Some(v) = &self.potential {
            v.expect_same_shape(current)?;
        }
        let potential = self
            .potential
            .get_or_insert_with(|| Tensor::zeros(current.shape().clone()));
        let _span =
            tcl_telemetry::span_with("neuron.step", || vec![("neurons", current.len() as f64)]);
        let mut spikes = Tensor::zeros(current.shape().clone());
        let thr = self.threshold;
        let subtract = matches!(self.reset, ResetMode::Subtract);
        // Each neuron updates independently, so large banks fan out across
        // threads in matching potential/spike chunks. The membrane update
        // runs through the SIMD `if_step` kernel at the caller-resolved
        // level; `if_step` is elementwise (no fusion), so every level — and
        // every chunking — produces bitwise identical trajectories. It also
        // returns its chunk's spike count, and an integer sum does not
        // depend on the chunking either.
        let level = simd::current();
        let fired = AtomicU64::new(0);
        par::par_items_mut2(
            par::current(),
            potential.data_mut(),
            1,
            spikes.data_mut(),
            1,
            1,
            par::min_items_per_worker(4),
            |first, vs, ss| {
                let zs = &current.data()[first..first + vs.len()];
                let chunk = simd::if_step(level, vs, zs, ss, thr, subtract);
                // ordering: Relaxed — the chunks' counts are only summed,
                // and the fan-out joins every worker before `into_inner`.
                fired.fetch_add(chunk as u64, Ordering::Relaxed);
            },
        );
        let emitted = fired.into_inner();
        self.spikes_emitted += emitted;
        self.steps += 1;
        if tcl_telemetry::metrics_enabled() {
            tcl_telemetry::counter_add("snn.spikes", emitted);
            let (lo, hi) = membrane_range(potential.data());
            if lo <= hi {
                tcl_telemetry::gauge_set("snn.potential_min", f64::from(lo));
                tcl_telemetry::gauge_set("snn.potential_max", f64::from(hi));
            }
        }
        Ok(spikes)
    }

    /// Membrane potentials since the last reset, if any step has run.
    pub fn potential(&self) -> Option<&Tensor> {
        self.potential.as_ref()
    }

    /// Compacts the bank's batch dimension to the rows listed in `keep`
    /// (indices into the current leading dimension, in the order given).
    ///
    /// Used by the inference engine's early-exit lane compaction: when a
    /// sample retires, its membrane row is dropped from every bank so the
    /// remaining samples keep simulating in a smaller batch. Kept rows are
    /// moved bit-for-bit, so surviving samples' trajectories are unchanged.
    /// A no-op before the first step (no potential is shaped yet).
    ///
    /// # Errors
    ///
    /// Returns an error if any index in `keep` is out of range.
    pub fn retain_rows(&mut self, keep: &[usize]) -> Result<(), tcl_tensor::TensorError> {
        let Some(v) = &self.potential else {
            return Ok(());
        };
        let dims = v.dims();
        let batch = dims.first().copied().unwrap_or(0);
        if let Some(&bad) = keep.iter().find(|&&r| r >= batch) {
            return Err(tcl_tensor::TensorError::InvalidArgument {
                detail: format!("retain_rows: row {bad} out of range for batch {batch}"),
            });
        }
        let row = v.len() / batch.max(1);
        // SIMD row gather: a straight bit copy at every dispatch level.
        let mut data = vec![0.0f32; keep.len() * row];
        simd::gather_rows(simd::current(), v.data(), row, keep, &mut data);
        let mut out_dims = dims.to_vec();
        out_dims[0] = keep.len();
        self.potential = Some(Tensor::from_vec(Shape::new(out_dims), data)?);
        Ok(())
    }

    /// Appends `extra` zero-potential rows to the bank's batch dimension.
    ///
    /// A zero membrane row is exactly the state a freshly reset neuron bank
    /// adopts on its first step, so growing the batch admits new samples
    /// mid-run without disturbing existing rows: this is the admission
    /// primitive behind the lane engine's continuous batching, the dual of
    /// [`IfNeurons::retain_rows`]. A no-op before the first step (the next
    /// step shapes the bank to its full input batch anyway).
    pub fn grow_rows(&mut self, extra: usize) {
        let Some(v) = &self.potential else {
            return;
        };
        if extra == 0 {
            return;
        }
        let dims = v.dims();
        let batch = dims.first().copied().unwrap_or(0);
        // Row size from the trailing dims (v.len()/batch divides by zero on
        // a fully retired bank, which must still be growable).
        let row: usize = dims.iter().skip(1).product();
        let mut data = Vec::with_capacity((batch + extra) * row);
        data.extend_from_slice(v.data());
        data.resize((batch + extra) * row, 0.0);
        let mut out_dims = dims.to_vec();
        if out_dims.is_empty() {
            out_dims.push(batch + extra);
        } else {
            out_dims[0] = batch + extra;
        }
        // lint: allow(P1) dims/data lengths are constructed consistently above
        let grown = Tensor::from_vec(Shape::new(out_dims), data).expect("consistent grow shape");
        self.potential = Some(grown);
    }

    /// Total spikes emitted since the last reset.
    pub fn spikes_emitted(&self) -> u64 {
        self.spikes_emitted
    }

    /// Steps simulated since the last reset.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Shape of the neuron bank, if established.
    pub fn shape(&self) -> Option<&Shape> {
        self.potential.as_ref().map(Tensor::shape)
    }
}

/// Lanes of one block of [`membrane_range`]'s running minimum and maximum.
const RANGE_LANES: usize = 8;
/// Independent 8-lane blocks folded per iteration, so consecutive vector
/// min/max instructions do not wait on each other's result.
const RANGE_BLOCKS: usize = 4;

/// The smallest and largest number in `v`, as `(lo, hi)`: exactly what the
/// scalar fold `lo = lo.min(x); hi = hi.max(x)` from `(+∞, −∞)` returns.
/// NaN entries are skipped and ±∞ kept; when no entry is a number (or `v`
/// is empty) the result is `(+∞, −∞)`, so `lo <= hi` tells whether there
/// is a range.
///
/// The fold keeps [`RANGE_BLOCKS`] running 8-lane `lo`/`hi` arrays, each
/// updated from its own 8-entry block with `<`/`>` selects that compile to
/// vector min/max, then folds the lanes and the remainder. Min and max pick
/// an entry rather than round one, so the order cannot change the values;
/// only the sign of a zero may differ from the scalar fold, and
/// `-0.0 == 0.0`.
fn membrane_range(v: &[f32]) -> (f32, f32) {
    let mut lo = [[f32::INFINITY; RANGE_LANES]; RANGE_BLOCKS];
    let mut hi = [[f32::NEG_INFINITY; RANGE_LANES]; RANGE_BLOCKS];
    let mut chunks = v.chunks_exact(RANGE_LANES * RANGE_BLOCKS);
    for chunk in &mut chunks {
        // A NaN `x` compares false both ways and leaves the lane as is.
        for (lo, block) in lo.iter_mut().zip(chunk.chunks_exact(RANGE_LANES)) {
            for (l, &x) in lo.iter_mut().zip(block) {
                *l = if x < *l { x } else { *l };
            }
        }
        for (hi, block) in hi.iter_mut().zip(chunk.chunks_exact(RANGE_LANES)) {
            for (h, &x) in hi.iter_mut().zip(block) {
                *h = if x > *h { x } else { *h };
            }
        }
    }
    let (mut lo_all, mut hi_all) = (f32::INFINITY, f32::NEG_INFINITY);
    for (&l, &h) in lo.iter().flatten().zip(hi.iter().flatten()) {
        lo_all = if l < lo_all { l } else { lo_all };
        hi_all = if h > hi_all { h } else { hi_all };
    }
    for &x in chunks.remainder() {
        lo_all = if x < lo_all { x } else { lo_all };
        hi_all = if x > hi_all { x } else { hi_all };
    }
    (lo_all, hi_all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The scalar `f32::min`/`f32::max` fold the block fold must reproduce.
    fn scalar_range(v: &[f32]) -> (f32, f32) {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for &x in v {
            lo = lo.min(x);
            hi = hi.max(x);
        }
        (lo, hi)
    }

    /// One entry: an ordinary number, or with probability `special`/100 one
    /// of NaN, +∞, −∞, +0 and −0.
    fn entry(kind: u8, x: f32, special: u8) -> f32 {
        if kind >= special {
            return x;
        }
        match kind % 5 {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            3 => 0.0,
            _ => -0.0,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn block_range_equals_the_scalar_fold(
            draws in proptest::collection::vec((0u8..100, -4.0f32..4.0), 0..101),
            density in 0usize..4,
        ) {
            // Sparse specials leave finite extremes for the fold to find;
            // dense ones give all-NaN and all-±∞ banks.
            let special = [0, 3, 20, 90][density];
            let v: Vec<f32> = draws.iter().map(|&(kind, x)| entry(kind, x, special)).collect();
            let (lo, hi) = membrane_range(&v);
            let (want_lo, want_hi) = scalar_range(&v);
            prop_assert!(lo == want_lo, "lo {} vs scalar {} over {:?}", lo, want_lo, v);
            prop_assert!(hi == want_hi, "hi {} vs scalar {} over {:?}", hi, want_hi, v);
            prop_assert_eq!(lo <= hi, want_lo <= want_hi);
        }
    }

    #[test]
    fn block_range_edge_cases() {
        assert_eq!(membrane_range(&[]), (f32::INFINITY, f32::NEG_INFINITY));
        let nan = [f32::NAN; 19];
        let (lo, hi) = membrane_range(&nan);
        assert!(lo > hi, "an all-NaN bank has no range");
        // The extremes sit in the remainder, in a block lane, or both.
        let mut v = vec![0.5f32; 45];
        v[44] = -3.0;
        v[3] = 7.0;
        assert_eq!(membrane_range(&v), (-3.0, 7.0));
        v[27] = f32::NEG_INFINITY;
        v[40] = f32::NAN;
        assert_eq!(membrane_range(&v), (f32::NEG_INFINITY, 7.0));
    }

    #[test]
    fn constant_input_fires_at_the_rate_coded_frequency() {
        // z = 0.3, thr = 1.0 → 3 spikes every 10 steps (rate 0.3).
        let mut bank = IfNeurons::new(1.0, ResetMode::Subtract);
        let z = Tensor::from_slice(&[0.3]);
        let mut spikes = 0.0;
        for _ in 0..100 {
            spikes += bank.step(&z).unwrap().at(0);
        }
        assert!((spikes - 30.0).abs() <= 1.0, "spikes {spikes}");
    }

    #[test]
    fn subtract_reset_preserves_residue_zero_reset_discards_it() {
        let z = Tensor::from_slice(&[0.7]);
        let mut sub = IfNeurons::new(1.0, ResetMode::Subtract);
        let mut zero = IfNeurons::new(1.0, ResetMode::Zero);
        let (mut s_sub, mut s_zero) = (0.0, 0.0);
        for _ in 0..100 {
            s_sub += sub.step(&z).unwrap().at(0);
            s_zero += zero.step(&z).unwrap().at(0);
        }
        // Exact rate 0.7 vs zero-reset's 0.5 (fires every 2nd step).
        assert!((s_sub - 70.0).abs() <= 1.0, "subtract {s_sub}");
        assert!((s_zero - 50.0).abs() <= 1.0, "zero {s_zero}");
        assert!(s_sub > s_zero);
    }

    #[test]
    fn rate_saturates_at_one_spike_per_step() {
        let mut bank = IfNeurons::new(1.0, ResetMode::Subtract);
        let z = Tensor::from_slice(&[5.0]);
        let mut spikes = 0.0;
        for _ in 0..10 {
            spikes += bank.step(&z).unwrap().at(0);
        }
        assert_eq!(spikes, 10.0);
    }

    #[test]
    fn negative_current_suppresses_firing() {
        let mut bank = IfNeurons::new(1.0, ResetMode::Subtract);
        let z = Tensor::from_slice(&[-0.5]);
        for _ in 0..20 {
            assert_eq!(bank.step(&z).unwrap().at(0), 0.0);
        }
    }

    #[test]
    fn reset_clears_state() {
        let mut bank = IfNeurons::new(1.0, ResetMode::Subtract);
        bank.step(&Tensor::from_slice(&[2.0])).unwrap();
        assert_eq!(bank.spikes_emitted(), 1);
        bank.reset();
        assert_eq!(bank.spikes_emitted(), 0);
        assert!(bank.potential().is_none());
        // A different shape is accepted after reset.
        bank.step(&Tensor::zeros([4])).unwrap();
        assert_eq!(bank.shape().unwrap().dims(), &[4]);
    }

    #[test]
    fn retain_rows_compacts_the_batch_dimension() {
        let mut bank = IfNeurons::new(1.0, ResetMode::Subtract);
        // Before the first step there is nothing to compact.
        assert!(bank.retain_rows(&[0]).is_ok());
        let z = Tensor::from_vec([3, 2], vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6]).unwrap();
        bank.step(&z).unwrap();
        bank.retain_rows(&[0, 2]).unwrap();
        let v = bank.potential().unwrap();
        assert_eq!(v.dims(), &[2, 2]);
        assert_eq!(v.data(), &[0.1, 0.2, 0.5, 0.6]);
        // Subsequent steps accept the compacted batch.
        let z2 = Tensor::from_vec([2, 2], vec![1.0, 1.0, 1.0, 1.0]).unwrap();
        bank.step(&z2).unwrap();
        assert!(bank.retain_rows(&[5]).is_err());
        bank.retain_rows(&[]).unwrap();
        assert_eq!(bank.potential().unwrap().dims(), &[0, 2]);
    }

    #[test]
    fn grow_rows_appends_fresh_zero_lanes() {
        let mut bank = IfNeurons::new(1.0, ResetMode::Subtract);
        // Before the first step there is nothing to grow.
        bank.grow_rows(3);
        assert!(bank.potential().is_none());
        let z = Tensor::from_vec([2, 2], vec![0.3, 0.4, 0.5, 0.6]).unwrap();
        bank.step(&z).unwrap();
        bank.grow_rows(1);
        let v = bank.potential().unwrap();
        assert_eq!(v.dims(), &[3, 2]);
        assert_eq!(v.data(), &[0.3, 0.4, 0.5, 0.6, 0.0, 0.0]);
        // The grown lane behaves exactly like a freshly reset bank: its
        // first step integrates from zero.
        let z3 = Tensor::from_vec([3, 2], vec![0.0, 0.0, 0.0, 0.0, 0.7, 0.7]).unwrap();
        bank.step(&z3).unwrap();
        let v = bank.potential().unwrap();
        assert_eq!(v.data()[4], 0.7);
        // grow_rows(0) is a no-op.
        bank.grow_rows(0);
        assert_eq!(bank.potential().unwrap().dims(), &[3, 2]);
        // Growing an emptied bank (all lanes retired) works too.
        bank.retain_rows(&[]).unwrap();
        bank.grow_rows(2);
        assert_eq!(bank.potential().unwrap().dims(), &[2, 2]);
        assert_eq!(bank.potential().unwrap().data(), &[0.0; 4]);
    }

    #[test]
    fn shape_mismatch_within_presentation_errors() {
        let mut bank = IfNeurons::new(1.0, ResetMode::Subtract);
        bank.step(&Tensor::zeros([2])).unwrap();
        assert!(bank.step(&Tensor::zeros([3])).is_err());
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn zero_threshold_is_rejected() {
        let _ = IfNeurons::new(0.0, ResetMode::Subtract);
    }

    #[test]
    fn spike_count_matches_rate_times_steps_within_one() {
        // Rate-coding property: for constant 0 ≤ z ≤ thr, the spike count
        // after T steps is within ±1 of z·T/thr (reset-by-subtraction).
        for &z in &[0.0f32, 0.11, 0.25, 0.5, 0.73, 0.99, 1.0] {
            let mut bank = IfNeurons::new(1.0, ResetMode::Subtract);
            let current = Tensor::from_slice(&[z]);
            let mut count = 0.0;
            let steps = 137;
            for _ in 0..steps {
                count += bank.step(&current).unwrap().at(0);
            }
            let expected = z * steps as f32;
            assert!(
                (count - expected).abs() <= 1.0,
                "z={z}: count {count} vs expected {expected}"
            );
        }
    }
}
