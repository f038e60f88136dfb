//! [`Sequential`]: a shared layer stack plus one flat parameter vector.

use crate::layer::{Cache, Layer, LayerInit};
use crate::loss;
use crate::tensor::Tensor;
use std::sync::Arc;

/// The architecture: layers in order and where each one's parameters
/// start in the flat vector (`offsets[i]..offsets[i + 1]`).
struct Stack {
    layers: Vec<Box<dyn Layer>>,
    offsets: Vec<usize>,
}

/// A feed-forward stack of layers executed in order, with its parameters.
///
/// The layers sit behind an `Arc` and the parameters in one `Vec<f32>` in
/// [`crate::ParamVec`] order, so a clone costs one parameter copy and
/// [`Self::with_params`] none. Every pass reads the parameters through a
/// borrowed slice: [`Self::evaluate_params`] scores any architecturally
/// identical parameter vector in place, without loading it into a model.
#[derive(Clone)]
pub struct Sequential {
    stack: Arc<Stack>,
    /// Written only by [`crate::Sgd::step`].
    pub(crate) params: Vec<f32>,
}

impl Sequential {
    /// Compose the given layers, concatenating their initial parameters.
    ///
    /// # Panics
    /// Panics if a layer's initial values do not match its parameter count.
    pub fn new(layers: Vec<LayerInit>) -> Self {
        let mut offsets = vec![0];
        let mut params = Vec::new();
        let layers = layers
            .into_iter()
            .map(|init| {
                assert_eq!(
                    init.params.len(),
                    init.layer.param_count(),
                    "{}: initial parameter count mismatch",
                    init.layer.name()
                );
                params.extend_from_slice(&init.params);
                offsets.push(params.len());
                init.layer
            })
            .collect();
        Self {
            stack: Arc::new(Stack { layers, offsets }),
            params,
        }
    }

    /// The same architecture carrying `params` instead (no copy; the layer
    /// stack is shared).
    ///
    /// # Panics
    /// Panics if the length does not match [`Self::param_count`].
    pub fn with_params(&self, params: Vec<f32>) -> Self {
        assert_eq!(
            params.len(),
            self.param_count(),
            "parameter vector length mismatch"
        );
        Self {
            stack: Arc::clone(&self.stack),
            params,
        }
    }

    /// Borrow the layer stack.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.stack.layers
    }

    /// The flat parameter vector, in [`crate::ParamVec`] order.
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// Consume the model, returning its flat parameter vector.
    pub fn into_params(self) -> Vec<f32> {
        self.params
    }

    /// Layer `i`'s parameters within a flat vector `p`.
    fn layer_params<'p>(&self, p: &'p [f32], i: usize) -> &'p [f32] {
        &p[self.stack.offsets[i]..self.stack.offsets[i + 1]]
    }

    /// Total learnable scalar count.
    pub fn param_count(&self) -> usize {
        self.params.len()
    }

    /// One-line human-readable architecture summary.
    pub fn summary(&self) -> String {
        let names: Vec<&str> = self.layers().iter().map(|l| l.name()).collect();
        format!("{} ({} params)", names.join(" -> "), self.param_count())
    }

    /// The inference-mode forward pass under parameters `p`: every layer
    /// reads its slice of `p` in place, and each intermediate is dropped
    /// once the next layer has read it.
    fn infer(&self, p: &[f32], x: &Tensor) -> Tensor {
        assert_eq!(
            p.len(),
            self.param_count(),
            "parameter vector length mismatch"
        );
        let mut cur: Option<Tensor> = None;
        for (i, layer) in self.layers().iter().enumerate() {
            let input = cur.as_ref().unwrap_or(x);
            cur = Some(layer.forward(self.layer_params(p, i), input, false).0);
        }
        cur.unwrap_or_else(|| x.clone())
    }

    /// The training-mode forward pass, keeping each layer's output and
    /// cache; layer `i` read `x` (`i = 0`) or output `i - 1`.
    fn forward_train(&self, x: &Tensor) -> Vec<(Tensor, Cache)> {
        let mut tape: Vec<(Tensor, Cache)> = Vec::with_capacity(self.layers().len());
        for (i, layer) in self.layers().iter().enumerate() {
            let input = tape.last().map_or(x, |(out, _)| out);
            let step = layer.forward(self.layer_params(&self.params, i), input, true);
            tape.push(step);
        }
        tape
    }

    /// Backward pass from a loss gradient through the recorded tape of a
    /// forward pass on `x`, returning the flat parameter gradient.
    fn backward(&self, x: &Tensor, tape: &[(Tensor, Cache)], grad_out: Tensor) -> Vec<f32> {
        let mut grads = vec![0.0f32; self.param_count()];
        let mut g = grad_out;
        for (i, layer) in self.layers().iter().enumerate().rev() {
            let input = if i == 0 { x } else { &tape[i - 1].0 };
            let (lo, hi) = (self.stack.offsets[i], self.stack.offsets[i + 1]);
            let p = self.layer_params(&self.params, i);
            g = layer.backward(p, input, &tape[i].1, &g, &mut grads[lo..hi]);
        }
        grads
    }

    /// Inference-mode forward pass (no caches).
    pub fn predict(&self, x: &Tensor) -> Tensor {
        self.infer(&self.params, x)
    }

    /// Forward + softmax-CE loss + backward on one batch. The gradient is
    /// flat, in [`crate::ParamVec`] order.
    ///
    /// For sequence models, `targets` holds one class per *row* of the final
    /// logits (i.e. `B·T` entries for `[B, T, V]` output).
    pub fn loss_and_grads(&self, x: &Tensor, targets: &[u32]) -> (f32, Vec<f32>) {
        let tape = self.forward_train(x);
        let logits = tape.last().map_or(x, |(out, _)| out);
        let (loss_value, grad) = loss::softmax_cross_entropy(logits, targets);
        (loss_value, self.backward(x, &tape, grad))
    }

    /// Inference-mode loss and accuracy on a labelled batch.
    pub fn evaluate(&self, x: &Tensor, targets: &[u32]) -> (f32, f32) {
        self.evaluate_params(&self.params, x, targets)
    }

    /// Inference-mode loss and accuracy of parameters `p` (e.g. a ledger
    /// payload, read in place) under this architecture.
    ///
    /// # Panics
    /// Panics if `p.len()` differs from [`Self::param_count`].
    pub fn evaluate_params(&self, p: &[f32], x: &Tensor, targets: &[u32]) -> (f32, f32) {
        let logits = self.infer(p, x);
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
            Dense::he(4, 8, &mut rng),
            Relu.into(),
            Dense::xavier(8, 3, &mut rng),
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

    #[test]
    fn evaluate_params_equals_evaluating_a_loaded_model() {
        let arch = tiny_model(6);
        let other = tiny_model(7);
        let x = Tensor::from_fn(&[5, 4], |i| (i as f32 * 0.7).sin());
        let t = [2u32, 1, 0, 1, 2];
        let (l, a) = arch.evaluate_params(other.params(), &x, &t);
        let (l2, a2) = arch.with_params(other.params().to_vec()).evaluate(&x, &t);
        assert_eq!((l.to_bits(), a.to_bits()), (l2.to_bits(), a2.to_bits()));
        assert_eq!(other.evaluate(&x, &t), (l, a));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn evaluate_params_rejects_wrong_length() {
        let m = tiny_model(8);
        let _ = m.evaluate_params(&[0.0; 3], &Tensor::zeros(&[1, 4]), &[0]);
    }

    #[test]
    fn with_params_shares_the_stack() {
        let m = tiny_model(9);
        let n = m.with_params(vec![0.5; m.param_count()]);
        assert!(Arc::ptr_eq(&m.stack, &n.stack));
        assert!(n.params().iter().all(|&v| v == 0.5));
    }
}
