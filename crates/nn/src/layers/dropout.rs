//! Inverted dropout.
//!
//! The reference VGG training recipes the paper builds on regularize the
//! classifier head with dropout. Dropout is a no-op at inference time, so
//! the ANN-to-SNN converter simply skips it — only the *training* dynamics
//! change.

use crate::error::{NnError, Result};
use serde::{Deserialize, Serialize};
use tcl_tensor::{SeededRng, Tensor};

/// Inverted dropout: during training each activation is zeroed with
/// probability `p` and survivors are scaled by `1/(1-p)`, so the expected
/// activation is unchanged and evaluation needs no rescaling.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dropout {
    /// Drop probability in `[0, 1)`.
    pub p: f32,
    seed: u64,
    calls: u64,
    mask: Option<Vec<bool>>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`.
    ///
    /// The layer derives its per-batch masks deterministically from `seed`
    /// and an internal call counter, so training runs remain reproducible.
    ///
    /// # Errors
    ///
    /// Returns a graph error unless `0 ≤ p < 1`.
    pub fn new(p: f32, seed: u64) -> Result<Self> {
        if !(0.0..1.0).contains(&p) {
            return Err(NnError::Graph {
                detail: format!("dropout probability {p} outside [0, 1)"),
            });
        }
        Ok(Dropout {
            p,
            seed,
            calls: 0,
            mask: None,
        })
    }

    /// Rebuilds a layer from persisted state (a training checkpoint),
    /// continuing the mask stream exactly where it left off.
    ///
    /// # Errors
    ///
    /// Returns a graph error unless `0 ≤ p < 1`.
    pub fn from_saved(p: f32, seed: u64, calls: u64) -> Result<Self> {
        let mut d = Dropout::new(p, seed)?;
        d.calls = calls;
        Ok(d)
    }

    /// Seed the per-batch masks are derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of training-mode forward calls made so far (the mask-stream
    /// cursor).
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Forward pass: identity in evaluation mode, random masking in
    /// training mode.
    pub fn forward(&mut self, input: &Tensor, mode: crate::Mode) -> Tensor {
        match mode {
            crate::Mode::Eval => {
                self.mask = None;
                input.clone()
            }
            crate::Mode::Train => {
                if self.p == 0.0 {
                    self.mask = Some(vec![true; input.len()]);
                    return input.clone();
                }
                let mut rng = SeededRng::new(self.seed.wrapping_add(self.calls));
                self.calls += 1;
                let keep = 1.0 - self.p;
                let scale = 1.0 / keep;
                let mask: Vec<bool> = (0..input.len())
                    .map(|_| rng.uniform(0.0, 1.0) >= self.p)
                    .collect();
                let mut out = input.clone();
                for (v, &m) in out.data_mut().iter_mut().zip(&mask) {
                    *v = if m { *v * scale } else { 0.0 };
                }
                self.mask = Some(mask);
                out
            }
        }
    }

    /// Backward pass: routes gradient through surviving positions with the
    /// same `1/(1-p)` scale.
    ///
    /// # Errors
    ///
    /// Returns a graph error if called before a training-mode forward pass
    /// or with a mismatched gradient length.
    pub fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let mask = self.mask.as_ref().ok_or_else(|| NnError::Graph {
            detail: "dropout backward called before training-mode forward".into(),
        })?;
        if mask.len() != grad_output.len() {
            return Err(NnError::Graph {
                detail: format!(
                    "dropout gradient length {} != cached mask length {}",
                    grad_output.len(),
                    mask.len()
                ),
            });
        }
        let scale = 1.0 / (1.0 - self.p);
        let mut out = grad_output.clone();
        for (v, &m) in out.data_mut().iter_mut().zip(mask) {
            *v = if m { *v * scale } else { 0.0 };
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mode;

    #[test]
    fn eval_mode_is_identity() {
        let mut d = Dropout::new(0.5, 0).unwrap();
        let x = Tensor::from_slice(&[1.0, -2.0, 3.0]);
        assert_eq!(d.forward(&x, Mode::Eval), x);
    }

    #[test]
    fn train_mode_preserves_expected_value() {
        let mut d = Dropout::new(0.3, 1).unwrap();
        let x = Tensor::ones([10_000]);
        let y = d.forward(&x, Mode::Train);
        let mean = y.mean();
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
        // Survivors are scaled by exactly 1/(1-p).
        for &v in y.data() {
            assert!(v == 0.0 || (v - 1.0 / 0.7).abs() < 1e-5);
        }
    }

    #[test]
    fn backward_uses_the_same_mask() {
        let mut d = Dropout::new(0.5, 2).unwrap();
        let x = Tensor::ones([64]);
        let y = d.forward(&x, Mode::Train);
        let g = d.backward(&Tensor::ones([64])).unwrap();
        for (a, b) in y.data().iter().zip(g.data()) {
            // Forward zero ⇔ backward zero.
            assert_eq!(*a == 0.0, *b == 0.0);
        }
    }

    #[test]
    fn zero_probability_keeps_everything() {
        let mut d = Dropout::new(0.0, 3).unwrap();
        let x = Tensor::from_slice(&[1.0, 2.0]);
        assert_eq!(d.forward(&x, Mode::Train), x);
        assert_eq!(d.backward(&x).unwrap(), x);
    }

    #[test]
    fn invalid_probability_is_rejected() {
        assert!(Dropout::new(1.0, 0).is_err());
        assert!(Dropout::new(-0.1, 0).is_err());
        assert!(Dropout::new(0.99, 0).is_ok());
    }

    #[test]
    fn masks_differ_across_calls_but_replay_across_layers() {
        let mut a = Dropout::new(0.5, 7).unwrap();
        let x = Tensor::ones([128]);
        let y1 = a.forward(&x, Mode::Train);
        let y2 = a.forward(&x, Mode::Train);
        assert_ne!(y1, y2, "fresh mask per call");
        let mut b = Dropout::new(0.5, 7).unwrap();
        let z1 = b.forward(&x, Mode::Train);
        assert_eq!(y1, z1, "same seed and call index replays the mask");
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut d = Dropout::new(0.5, 0).unwrap();
        assert!(d.backward(&Tensor::ones([4])).is_err());
    }

    #[test]
    fn saved_state_continues_the_mask_stream() {
        let mut a = Dropout::new(0.5, 11).unwrap();
        let x = Tensor::ones([256]);
        let y0 = a.forward(&x, Mode::Train);
        let _ = y0;
        let y1 = a.forward(&x, Mode::Train);
        // Restore from (seed, calls) captured after the first call.
        let mut b = Dropout::from_saved(0.5, 11, 1).unwrap();
        assert_eq!(b.calls(), 1);
        assert_eq!(b.seed(), 11);
        let z1 = b.forward(&x, Mode::Train);
        assert_eq!(y1, z1, "restored layer replays the same mask stream");
    }
}
