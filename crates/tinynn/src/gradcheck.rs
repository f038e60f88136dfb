//! Numerical gradient checking (tests only).
//!
//! Every layer's analytic backward pass is validated against central finite
//! differences. This is the correctness anchor for the whole ML substrate:
//! if these checks pass, the convergence results downstream are trustworthy.

use crate::layer::{Cache, Layer};
use crate::model::Sequential;
use crate::tensor::Tensor;
use crate::workspace::fit;
use rand::RngExt as _;

/// Hyperbolic tangent, the smooth activation of the checked models. It
/// writes a separate output and keeps a copy of it in [`Cache`] float
/// buffer 0 for its backward pass, because an in-place layer after it may
/// rewrite the output itself.
#[derive(Default, Clone, Copy)]
pub(crate) struct Tanh;

impl Layer for Tanh {
    fn name(&self) -> &'static str {
        "Tanh"
    }

    fn forward_into(
        &self,
        _: &[f32],
        x: Option<&Tensor>,
        y: &mut Tensor,
        cache: &mut Cache,
        _: bool,
    ) {
        let x = x.expect("an out-of-place layer reads its input");
        for (o, &v) in y.resize(x.shape()).iter_mut().zip(x.as_slice()) {
            *o = v.tanh();
        }
        let [kept] = cache.floats.first();
        fit(kept, y.len()).copy_from_slice(y.as_slice());
    }

    fn backward_into(
        &self,
        _: &[f32],
        _: &Tensor,
        _: &Tensor,
        cache: &mut Cache,
        dy: &mut Tensor,
        dx: Option<&mut Tensor>,
        _: &mut [f32],
    ) {
        let Some(dx) = dx else { return };
        let [kept] = cache.floats.first();
        let out = dx.resize(dy.shape());
        for ((o, &g), &yv) in out.iter_mut().zip(dy.as_slice()).zip(kept.iter()) {
            *o = g * (1.0 - yv * yv);
        }
    }
}

/// Result of a gradient check: the worst relative error observed and the
/// flat parameter index where it occurred.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GradCheckReport {
    /// max |analytic − numeric| / max(1, |analytic| + |numeric|)
    pub(crate) max_rel_err: f32,
    /// Flat parameter index of the worst error.
    pub(crate) worst_index: usize,
}

/// Compare analytic gradients to central finite differences on a random
/// sample of `sample` parameter coordinates (or all, if fewer).
///
/// The check evaluates the loss several times and requires every layer's
/// forward pass to be deterministic. The analytic pass asks every layer,
/// the first included, for its input gradient, so each layer's input-gradient
/// code runs here even where [`Sequential::loss_and_grads`] skips it.
pub(crate) fn check_gradients(
    model: &Sequential,
    x: &Tensor,
    targets: &[u32],
    eps: f32,
    sample: usize,
    seed: u64,
) -> GradCheckReport {
    let (_, analytic, gx) = model.train_pass_owned(x, targets, true);
    let gx = gx.expect("every layer returns the input gradient it is asked for");
    assert_eq!(gx.shape(), x.shape(), "input gradient shape");
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
    use crate::activations::Relu;
    use crate::conv::Conv2d;
    use crate::dense::Dense;
    use crate::embedding::Embedding;
    use crate::layer::Allocating;
    use crate::lstm::Lstm;
    use crate::pool::MaxPool2d;
    use crate::reshape::Flatten;
    use crate::rng::seeded;

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

    #[test]
    fn tanh_odd_symmetry() {
        let x = Tensor::from_vec(vec![2], vec![1.3, -1.3]);
        let (y, _) = Tanh.forward(&[], &x, false);
        assert!((y.as_slice()[0] + y.as_slice()[1]).abs() < 1e-6);
    }

    #[test]
    fn tanh_gradient_at_zero_is_one() {
        let x = Tensor::from_vec(vec![1], vec![0.0]);
        let (y, c) = Tanh.forward(&[], &x, true);
        let g = Tensor::from_fn(&[1], |_| 1.0);
        let gx = Tanh.backward(&[], &x, &y, &c, g, &mut [], true).unwrap();
        assert!((gx.as_slice()[0] - 1.0).abs() < 1e-6);
    }
}
