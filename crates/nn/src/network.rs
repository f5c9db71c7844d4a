//! Sequential network container.

use crate::error::{NnError, Result};
use crate::layer::{Layer, Mode};
use crate::param::Param;
use serde::{Deserialize, Serialize};
use tcl_tensor::Tensor;

/// A feed-forward network: an ordered sequence of [`Layer`]s.
///
/// Residual topologies are expressed through the composite
/// [`crate::layers::ResidualBlock`] layer, so the top level stays a simple
/// sequence — which is exactly the structure the ANN-to-SNN converter walks.
///
/// # Examples
///
/// ```
/// use tcl_nn::{Layer, Mode, Network};
/// use tcl_nn::layers::{Clip, Linear, Relu};
/// use tcl_tensor::{SeededRng, Tensor};
///
/// let mut rng = SeededRng::new(0);
/// let net = Network::new(vec![
///     Layer::Linear(Linear::new(4, 8, true, &mut rng)?),
///     Layer::Relu(Relu::new()),
///     Layer::Clip(Clip::new(2.0)),
///     Layer::Linear(Linear::new(8, 3, true, &mut rng)?),
/// ]);
/// let mut net = net;
/// let x = rng.uniform_tensor([2, 4], -1.0, 1.0);
/// assert_eq!(net.forward(&x, Mode::Eval)?.dims(), &[2, 3]);
/// # Ok::<(), tcl_nn::NnError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Network {
    layers: Vec<Layer>,
}

impl Network {
    /// Creates a network from an ordered list of layers.
    pub fn new(layers: Vec<Layer>) -> Self {
        Network { layers }
    }

    /// The layers, in forward order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable access to the layers (used by the converter's rewrites).
    pub fn layers_mut(&mut self) -> &mut Vec<Layer> {
        &mut self.layers
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Forward pass through all layers.
    ///
    /// # Errors
    ///
    /// Propagates the first layer error encountered, annotated with the
    /// failing layer's index and kind.
    pub fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let mut x = input.clone();
        for (i, layer) in self.layers.iter_mut().enumerate() {
            x = layer.forward(&x, mode).map_err(|e| NnError::Graph {
                detail: format!("layer {i} ({}): {e}", layer.kind_name()),
            })?;
        }
        Ok(x)
    }

    /// Forward pass that invokes `observe(layer_index, layer, output)` after
    /// every layer — the hook used to collect activation statistics for
    /// norm-factor estimation and for regenerating the paper's Figure 1.
    ///
    /// # Errors
    ///
    /// As for [`Network::forward`].
    pub fn forward_observed<F>(
        &mut self,
        input: &Tensor,
        mode: Mode,
        mut observe: F,
    ) -> Result<Tensor>
    where
        F: FnMut(usize, &Layer, &Tensor),
    {
        let mut x = input.clone();
        for (i, layer) in self.layers.iter_mut().enumerate() {
            x = layer.forward(&x, mode).map_err(|e| NnError::Graph {
                detail: format!("layer {i} ({}): {e}", layer.kind_name()),
            })?;
            observe(i, layer, &x);
        }
        Ok(x)
    }

    /// Backward pass: pushes `grad_output` back through all layers,
    /// accumulating parameter gradients, and returns the input gradient.
    ///
    /// # Errors
    ///
    /// Returns a graph error if any layer lacks cached forward state.
    pub fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let mut g = grad_output.clone();
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            g = layer.backward(&g).map_err(|e| NnError::Graph {
                detail: format!("layer {i} ({}): {e}", layer.kind_name()),
            })?;
        }
        Ok(g)
    }

    /// Visits every trainable parameter in the network.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    /// Clears all parameter gradients.
    pub fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Total number of trainable scalars.
    pub fn num_parameters(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }

    /// The trained clipping bounds (λ), in forward order. For residual
    /// blocks this yields `λ_c1` then `λ_out`.
    pub fn clip_lambdas(&self) -> Vec<f32> {
        let mut out = Vec::new();
        for layer in &self.layers {
            match layer {
                Layer::Clip(c) => out.push(c.lambda_value()),
                Layer::Residual(r) => {
                    if let Some(c) = &r.clip1 {
                        out.push(c.lambda_value());
                    }
                    if let Some(c) = &r.clip_out {
                        out.push(c.lambda_value());
                    }
                }
                _ => {}
            }
        }
        out
    }
}

impl FromIterator<Layer> for Network {
    fn from_iter<I: IntoIterator<Item = Layer>>(iter: I) -> Self {
        Network::new(iter.into_iter().collect())
    }
}

impl Extend<Layer> for Network {
    fn extend<I: IntoIterator<Item = Layer>>(&mut self, iter: I) {
        self.layers.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Clip, Linear, Relu};
    use tcl_tensor::SeededRng;

    fn tiny_net(rng: &mut SeededRng) -> Network {
        Network::new(vec![
            Layer::Linear(Linear::new(3, 5, true, rng).unwrap()),
            Layer::Relu(Relu::new()),
            Layer::Clip(Clip::new(2.0)),
            Layer::Linear(Linear::new(5, 2, true, rng).unwrap()),
        ])
    }

    #[test]
    fn forward_produces_logits() {
        let mut rng = SeededRng::new(0);
        let mut net = tiny_net(&mut rng);
        let x = rng.uniform_tensor([4, 3], -1.0, 1.0);
        let y = net.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[4, 2]);
        assert!(y.is_finite());
    }

    #[test]
    fn backward_after_train_forward_succeeds() {
        let mut rng = SeededRng::new(1);
        let mut net = tiny_net(&mut rng);
        let x = rng.uniform_tensor([2, 3], -1.0, 1.0);
        let y = net.forward(&x, Mode::Train).unwrap();
        let g = Tensor::ones(y.shape().clone());
        let gi = net.backward(&g).unwrap();
        assert_eq!(gi.dims(), x.dims());
    }

    #[test]
    fn backward_error_names_the_layer() {
        let mut rng = SeededRng::new(2);
        let mut net = tiny_net(&mut rng);
        let err = net.backward(&Tensor::zeros([1, 2])).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("layer 3"), "{msg}");
        assert!(msg.contains("linear"), "{msg}");
    }

    #[test]
    fn zero_grad_clears_all_gradients() {
        let mut rng = SeededRng::new(3);
        let mut net = tiny_net(&mut rng);
        let x = rng.uniform_tensor([2, 3], -1.0, 1.0);
        let y = net.forward(&x, Mode::Train).unwrap();
        net.backward(&Tensor::ones(y.shape().clone())).unwrap();
        let mut total = 0.0;
        net.visit_params(&mut |p| total += p.grad.data().iter().map(|v| v.abs()).sum::<f32>());
        assert!(total > 0.0);
        net.zero_grad();
        total = 0.0;
        net.visit_params(&mut |p| total += p.grad.data().iter().map(|v| v.abs()).sum::<f32>());
        assert_eq!(total, 0.0);
    }

    #[test]
    fn num_parameters_counts_scalars() {
        let mut rng = SeededRng::new(4);
        let mut net = tiny_net(&mut rng);
        // 3*5 + 5 + 1 (λ) + 5*2 + 2 = 33.
        assert_eq!(net.num_parameters(), 33);
    }

    #[test]
    fn clip_lambdas_reports_in_forward_order() {
        let mut rng = SeededRng::new(5);
        let net = tiny_net(&mut rng);
        assert_eq!(net.clip_lambdas(), vec![2.0]);
    }

    #[test]
    fn forward_observed_sees_every_layer() {
        let mut rng = SeededRng::new(6);
        let mut net = tiny_net(&mut rng);
        let x = rng.uniform_tensor([1, 3], 0.0, 1.0);
        let mut seen = Vec::new();
        net.forward_observed(&x, Mode::Eval, |i, layer, out| {
            seen.push((i, layer.kind_name(), out.len()));
        })
        .unwrap();
        assert_eq!(seen.len(), 4);
        assert_eq!(seen[1].1, "relu");
        assert_eq!(seen[3].2, 2);
    }

    #[test]
    fn collect_and_extend() {
        let mut rng = SeededRng::new(7);
        let mut net: Network = vec![Layer::Relu(Relu::new())].into_iter().collect();
        net.extend(vec![Layer::Linear(
            Linear::new(2, 2, false, &mut rng).unwrap(),
        )]);
        assert_eq!(net.len(), 2);
        assert!(!net.is_empty());
    }
}
