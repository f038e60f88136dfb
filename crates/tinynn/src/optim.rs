//! Plain stochastic gradient descent — the optimizer used by both FedAvg
//! and the learning tangle (the paper trains with plain SGD at fixed
//! learning rates).

use crate::model::Sequential;

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Dense;
    use crate::layer::LayerInit;
    use crate::tensor::Tensor;

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
