//! Plain stochastic gradient descent — the optimizer used by both FedAvg
//! and the learning tangle (the paper trains with plain SGD at fixed
//! learning rates).

use crate::model::Sequential;
use crate::tensor::Tensor;
use crate::workspace::with_workspace;

/// SGD optimizer: `p ← p − lr·g`.
pub struct Sgd {
    lr: f32,
}

impl Sgd {
    /// Plain SGD with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Self { lr }
    }

    /// Apply one update step to `model` using the flat gradient `grads`
    /// (as [`Sequential::loss_and_grads`] returns it).
    ///
    /// # Panics
    /// Panics if `grads` is not one value per parameter.
    pub fn step(&mut self, model: &mut Sequential, grads: &[f32]) {
        assert_eq!(grads.len(), model.params.len(), "gradient length mismatch");
        for (p, &g) in model.params.iter_mut().zip(grads) {
            *p -= self.lr * g;
        }
    }

    /// One mini-batch step: [`Sequential::loss_and_grads`] then
    /// [`Self::step`], with the gradient applied where it lies in this
    /// thread's workspace instead of copied out. Returns the batch loss.
    pub fn train_step(&mut self, model: &mut Sequential, x: &Tensor, targets: &[u32]) -> f32 {
        with_workspace(|ws| {
            let (loss, _) = model.train_pass(ws, x, targets, false);
            self.step(model, &ws.grad_p);
            loss
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Dense;
    use crate::layer::LayerInit;

    /// A train step moves the parameters exactly as `loss_and_grads`
    /// followed by `step` does, bit for bit.
    #[test]
    fn train_step_equals_loss_and_grads_then_step() {
        use crate::testing::bits;
        let mut rng = crate::rng::seeded(4);
        let mut a = crate::zoo::mlp(4, &[8], 3, &mut rng);
        let mut b = a.clone();
        let x = Tensor::from_fn(&[5, 4], |i| (i as f32 * 0.3).sin());
        let t = [0u32, 2, 1, 1, 0];
        let mut sgd = Sgd::new(0.3);
        for _ in 0..3 {
            let (loss, g) = a.loss_and_grads(&x, &t);
            sgd.step(&mut a, &g);
            assert_eq!(sgd.train_step(&mut b, &x, &t).to_bits(), loss.to_bits());
        }
        assert_eq!(bits(a.params()), bits(b.params()));
    }

    #[test]
    fn plain_sgd_step() {
        let mut m = Sequential::new(vec![LayerInit::new(
            Dense::new(1, 1),
            &[Tensor::from_vec(vec![1, 1], vec![1.0]), Tensor::zeros(&[1])],
        )]);
        Sgd::new(0.1).step(&mut m, &[0.5, 0.0]);
        assert!((m.params()[0] - 0.95).abs() < 1e-6);
    }
}
