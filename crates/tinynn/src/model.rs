//! [`Sequential`] model composition and the gradient container of one
//! training step.

use crate::layer::{Cache, Layer};
use crate::loss;
use crate::tensor::Tensor;

/// Gradients for every parameter of a model, in layer order.
///
/// `by_layer[i][j]` matches `model.layers()[i].params()[j]` in shape.
pub struct Gradients {
    /// Per-layer, per-parameter gradient tensors.
    pub by_layer: Vec<Vec<Tensor>>,
}

impl Gradients {
    /// Zero gradients shaped like `model`'s parameters.
    pub fn zeros_like(model: &Sequential) -> Self {
        Gradients {
            by_layer: model
                .layers
                .iter()
                .map(|l| {
                    l.params()
                        .iter()
                        .map(|p| Tensor::zeros(p.shape()))
                        .collect()
                })
                .collect(),
        }
    }
}

/// A feed-forward stack of layers executed in order.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Compose the given layers.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Self { layers }
    }

    /// Borrow the layer stack.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Mutably borrow the layer stack.
    pub fn layers_mut(&mut self) -> &mut [Box<dyn Layer>] {
        &mut self.layers
    }

    /// Total learnable scalar count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// One-line human-readable architecture summary.
    pub fn summary(&self) -> String {
        let names: Vec<&str> = self.layers.iter().map(|l| l.name()).collect();
        format!("{} ({} params)", names.join(" -> "), self.param_count())
    }

    /// Inference-mode forward pass (no caches).
    pub fn predict(&self, x: &Tensor) -> Tensor {
        let mut cur = x.clone();
        for layer in &self.layers {
            let (out, _) = layer.forward(&cur, false);
            cur = out;
        }
        cur
    }

    /// Training-mode forward pass retaining each layer's input and cache.
    fn forward_train(&self, x: &Tensor) -> (Tensor, Vec<(Tensor, Cache)>) {
        let mut tape = Vec::with_capacity(self.layers.len());
        let mut cur = x.clone();
        for layer in &self.layers {
            let (out, cache) = layer.forward(&cur, true);
            tape.push((cur, cache));
            cur = out;
        }
        (cur, tape)
    }

    /// Backward pass from a loss gradient through the recorded tape.
    fn backward(&self, tape: &[(Tensor, Cache)], grad_out: Tensor) -> Gradients {
        let mut grads = Vec::with_capacity(self.layers.len());
        let mut g = grad_out;
        for (layer, (input, cache)) in self.layers.iter().zip(tape).rev() {
            let (gx, gp) = layer.backward(input, cache, &g);
            grads.push(gp);
            g = gx;
        }
        grads.reverse();
        Gradients { by_layer: grads }
    }

    /// Forward + softmax-CE loss + backward on one batch.
    ///
    /// For sequence models, `targets` holds one class per *row* of the final
    /// logits (i.e. `B·T` entries for `[B, T, V]` output).
    pub fn loss_and_grads(&self, x: &Tensor, targets: &[u32]) -> (f32, Gradients) {
        let (logits, tape) = self.forward_train(x);
        let (loss_value, grad) = loss::softmax_cross_entropy(&logits, targets);
        (loss_value, self.backward(&tape, grad))
    }

    /// Inference-mode loss and accuracy on a labelled batch.
    pub fn evaluate(&self, x: &Tensor, targets: &[u32]) -> (f32, f32) {
        let logits = self.predict(x);
        (
            loss::cross_entropy(&logits, targets),
            loss::accuracy(&logits, targets),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activations::Relu;
    use crate::dense::Dense;
    use crate::rng::seeded;

    fn tiny_model(seed: u64) -> Sequential {
        let mut rng = seeded(seed);
        Sequential::new(vec![
            Box::new(Dense::he(4, 8, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::xavier(8, 3, &mut rng)),
        ])
    }

    #[test]
    fn summary_and_param_count() {
        let m = tiny_model(0);
        assert_eq!(m.param_count(), 4 * 8 + 8 + 8 * 3 + 3);
        assert!(m.summary().contains("Dense -> Relu -> Dense"));
    }

    #[test]
    fn loss_decreases_with_sgd() {
        use crate::optim::Sgd;
        let mut m = tiny_model(1);
        let x = Tensor::from_fn(&[8, 4], |i| ((i * 37 % 17) as f32 - 8.0) * 0.1);
        let t: Vec<u32> = (0..8).map(|i| (i % 3) as u32).collect();
        let mut sgd = Sgd::new(0.5);
        let (l0, g) = m.loss_and_grads(&x, &t);
        sgd.step(&mut m, &g);
        for _ in 0..50 {
            let (_, g) = m.loss_and_grads(&x, &t);
            sgd.step(&mut m, &g);
        }
        let (l1, _) = m.loss_and_grads(&x, &t);
        assert!(l1 < l0 * 0.5, "loss should halve: {l0} -> {l1}");
    }

    #[test]
    fn evaluate_reports_loss_and_accuracy() {
        let m = tiny_model(5);
        let x = Tensor::from_fn(&[6, 4], |i| (i as f32).cos());
        let t = [0u32, 1, 2, 0, 1, 2];
        let (l, a) = m.evaluate(&x, &t);
        assert!(l > 0.0);
        assert!((0.0..=1.0).contains(&a));
    }
}
