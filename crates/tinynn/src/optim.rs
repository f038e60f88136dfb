//! Plain stochastic gradient descent — the optimizer used by both FedAvg
//! and the learning tangle (the paper trains with plain SGD at fixed
//! learning rates).

use crate::model::{Gradients, Sequential};

/// SGD optimizer: `p ← p − lr·g`.
pub struct Sgd {
    lr: f32,
}

impl Sgd {
    /// Plain SGD with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Self { lr }
    }

    /// Apply one update step to `model` using `grads`.
    pub fn step(&mut self, model: &mut Sequential, grads: &Gradients) {
        for (layer, layer_grads) in model.layers_mut().iter_mut().zip(&grads.by_layer) {
            for (p, g) in layer.params_mut().into_iter().zip(layer_grads) {
                for (pv, &gv) in p.as_mut_slice().iter_mut().zip(g.as_slice()) {
                    *pv -= self.lr * gv;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Dense;
    use crate::tensor::Tensor;

    #[test]
    fn plain_sgd_step() {
        let mut m = Sequential::new(vec![Box::new(Dense::new(
            Tensor::from_vec(vec![1, 1], vec![1.0]),
            Tensor::zeros(&[1]),
        ))]);
        let mut g = Gradients::zeros_like(&m);
        g.by_layer[0][0].as_mut_slice()[0] = 0.5;
        Sgd::new(0.1).step(&mut m, &g);
        assert!((m.layers()[0].params()[0].as_slice()[0] - 0.95).abs() < 1e-6);
    }
}
