//! Numerical gradient checking.
//!
//! Every layer's analytic backward pass is validated against central finite
//! differences. This is the correctness anchor for the whole ML substrate:
//! if these checks pass, the convergence results downstream are trustworthy.

use crate::model::Sequential;
use rand::RngExt as _;

/// Result of a gradient check: the worst relative error observed and the
/// flat parameter index where it occurred.
#[derive(Debug, Clone, Copy)]
pub struct GradCheckReport {
    /// max |analytic − numeric| / max(1, |analytic| + |numeric|)
    pub max_rel_err: f32,
    /// Flat parameter index of the worst error.
    pub worst_index: usize,
    /// Number of parameter coordinates checked.
    pub checked: usize,
}

/// Compare analytic gradients to central finite differences on a random
/// sample of `sample` parameter coordinates (or all, if fewer).
///
/// The check evaluates the loss several times and requires every layer's
/// forward pass to be deterministic.
pub fn check_gradients(
    model: &Sequential,
    x: &crate::tensor::Tensor,
    targets: &[u32],
    eps: f32,
    sample: usize,
    seed: u64,
) -> GradCheckReport {
    let (_, analytic) = model.loss_and_grads(x, targets);
    let base = model.params();
    let n = base.len();
    let mut rng = crate::rng::seeded(seed);
    let indices: Vec<usize> = if sample >= n {
        (0..n).collect()
    } else {
        (0..sample).map(|_| rng.random_range(0..n)).collect()
    };
    let mut report = GradCheckReport {
        max_rel_err: 0.0,
        worst_index: 0,
        checked: indices.len(),
    };
    for &i in &indices {
        let mut plus = base.to_vec();
        plus[i] += eps;
        let (lp, _) = model.with_params(plus).loss_and_grads(x, targets);
        let mut minus = base.to_vec();
        minus[i] -= eps;
        let (lm, _) = model.with_params(minus).loss_and_grads(x, targets);
        let numeric = (lp - lm) / (2.0 * eps);
        let a = analytic[i];
        let rel = (a - numeric).abs() / (a.abs() + numeric.abs()).max(1.0);
        if rel > report.max_rel_err {
            report.max_rel_err = rel;
            report.worst_index = i;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activations::{Relu, Tanh};
    use crate::conv::Conv2d;
    use crate::dense::Dense;
    use crate::embedding::Embedding;
    use crate::lstm::Lstm;
    use crate::pool::MaxPool2d;
    use crate::reshape::Flatten;
    use crate::rng::seeded;
    use crate::tensor::Tensor;

    const TOL: f32 = 2e-2; // f32 finite differences are noisy; structure errors are orders of magnitude larger

    #[test]
    fn dense_gradients() {
        let mut rng = seeded(10);
        let m = Sequential::new(vec![
            Dense::xavier(5, 7, &mut rng),
            Tanh.into(),
            Dense::xavier(7, 3, &mut rng),
        ]);
        let x = Tensor::from_fn(&[4, 5], |i| ((i * 13 % 7) as f32 - 3.0) * 0.3);
        let t = [0u32, 1, 2, 1];
        let r = check_gradients(&m, &x, &t, 1e-2, 60, 1);
        assert!(r.max_rel_err < TOL, "dense grad check failed: {r:?}");
    }

    #[test]
    fn relu_network_gradients() {
        let mut rng = seeded(11);
        let m = Sequential::new(vec![
            Dense::he(4, 6, &mut rng),
            Relu.into(),
            Dense::xavier(6, 2, &mut rng),
        ]);
        let x = Tensor::from_fn(&[3, 4], |i| ((i * 7 % 11) as f32 - 5.0) * 0.25);
        let t = [0u32, 1, 0];
        let r = check_gradients(&m, &x, &t, 1e-2, 40, 2);
        assert!(r.max_rel_err < TOL, "relu grad check failed: {r:?}");
    }

    #[test]
    fn conv_pool_gradients() {
        let mut rng = seeded(12);
        let m = Sequential::new(vec![
            Conv2d::he(1, 2, 3, 1, &mut rng),
            Tanh.into(),
            MaxPool2d::new(2).into(),
            Flatten.into(),
            Dense::xavier(2 * 3 * 3, 3, &mut rng),
        ]);
        let x = Tensor::from_fn(&[2, 1, 6, 6], |i| ((i * 31 % 17) as f32 - 8.0) * 0.1);
        let t = [0u32, 2];
        let r = check_gradients(&m, &x, &t, 1e-2, 60, 3);
        assert!(r.max_rel_err < TOL, "conv grad check failed: {r:?}");
    }

    #[test]
    fn lstm_gradients() {
        let mut rng = seeded(13);
        let m = Sequential::new(vec![
            Lstm::init(3, 4, &mut rng),
            Dense::xavier(4, 3, &mut rng),
        ]);
        let x = Tensor::from_fn(&[2, 5, 3], |i| ((i * 29 % 13) as f32 - 6.0) * 0.15);
        // sequence output: 2*5 = 10 target rows
        let t: Vec<u32> = (0..10).map(|i| (i % 3) as u32).collect();
        let r = check_gradients(&m, &x, &t, 1e-2, 80, 4);
        assert!(r.max_rel_err < TOL, "lstm grad check failed: {r:?}");
    }

    #[test]
    fn stacked_lstm_gradients() {
        let mut rng = seeded(14);
        let m = Sequential::new(vec![
            Lstm::init(2, 3, &mut rng),
            Lstm::init(3, 3, &mut rng),
            Dense::xavier(3, 2, &mut rng),
        ]);
        let x = Tensor::from_fn(&[1, 4, 2], |i| ((i * 5 % 9) as f32 - 4.0) * 0.2);
        let t: Vec<u32> = (0..4).map(|i| (i % 2) as u32).collect();
        let r = check_gradients(&m, &x, &t, 1e-2, 60, 5);
        assert!(r.max_rel_err < TOL, "stacked lstm grad check failed: {r:?}");
    }

    #[test]
    fn embedding_lstm_gradients() {
        let mut rng = seeded(15);
        let m = Sequential::new(vec![
            Embedding::init(6, 4, &mut rng),
            Lstm::init(4, 5, &mut rng),
            Dense::xavier(5, 6, &mut rng),
        ]);
        let x = Tensor::from_vec(vec![2, 3], vec![0., 3., 5., 1., 2., 4.]);
        let t: Vec<u32> = vec![3, 5, 0, 2, 4, 1];
        let r = check_gradients(&m, &x, &t, 1e-2, 60, 6);
        assert!(r.max_rel_err < TOL, "embedding grad check failed: {r:?}");
    }
}
