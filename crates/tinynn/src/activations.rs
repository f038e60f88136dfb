//! Elementwise activation layers: ReLU, Sigmoid, Tanh.

use crate::layer::{Cache, Layer};
use crate::tensor::Tensor;

/// Rectified linear unit: `max(0, x)`.
#[derive(Default, Clone, Copy)]
pub struct Relu;

impl Relu {
    /// Construct a ReLU layer.
    pub fn new() -> Self {
        Relu
    }
}

impl Layer for Relu {
    fn name(&self) -> &'static str {
        "Relu"
    }

    fn forward(&self, _p: &[f32], x: &Tensor, _train: bool) -> (Tensor, Cache) {
        let mut y = x.clone();
        for v in y.as_mut_slice() {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        (y, Cache::none())
    }

    fn backward(&self, _: &[f32], x: &Tensor, _: &Cache, dy: &Tensor, _: &mut [f32]) -> Tensor {
        let mut g = dy.clone();
        for (gv, &xv) in g.as_mut_slice().iter_mut().zip(x.as_slice()) {
            if xv <= 0.0 {
                *gv = 0.0;
            }
        }
        g
    }
}

/// Logistic sigmoid: `1 / (1 + e^{-x})`.
#[derive(Default, Clone, Copy)]
pub struct Sigmoid;

impl Sigmoid {
    /// Construct a sigmoid layer.
    pub fn new() -> Self {
        Sigmoid
    }
}

/// Scalar sigmoid, shared with the LSTM gates.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

impl Layer for Sigmoid {
    fn name(&self) -> &'static str {
        "Sigmoid"
    }

    fn forward(&self, _p: &[f32], x: &Tensor, _train: bool) -> (Tensor, Cache) {
        let mut y = x.clone();
        for v in y.as_mut_slice() {
            *v = sigmoid(*v);
        }
        (y.clone(), Cache::new(y))
    }

    fn backward(&self, _: &[f32], _: &Tensor, cache: &Cache, dy: &Tensor, _: &mut [f32]) -> Tensor {
        let y = cache.get::<Tensor>();
        let mut g = dy.clone();
        for (gv, &yv) in g.as_mut_slice().iter_mut().zip(y.as_slice()) {
            *gv *= yv * (1.0 - yv);
        }
        g
    }
}

/// Hyperbolic tangent activation.
#[derive(Default, Clone, Copy)]
pub struct Tanh;

impl Tanh {
    /// Construct a tanh layer.
    pub fn new() -> Self {
        Tanh
    }
}

impl Layer for Tanh {
    fn name(&self) -> &'static str {
        "Tanh"
    }

    fn forward(&self, _p: &[f32], x: &Tensor, _train: bool) -> (Tensor, Cache) {
        let mut y = x.clone();
        for v in y.as_mut_slice() {
            *v = v.tanh();
        }
        (y.clone(), Cache::new(y))
    }

    fn backward(&self, _: &[f32], _: &Tensor, cache: &Cache, dy: &Tensor, _: &mut [f32]) -> Tensor {
        let y = cache.get::<Tensor>();
        let mut g = dy.clone();
        for (gv, &yv) in g.as_mut_slice().iter_mut().zip(y.as_slice()) {
            *gv *= 1.0 - yv * yv;
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_backward() {
        let x = Tensor::from_vec(vec![4], vec![-1., 0., 0.5, 2.]);
        let r = Relu::new();
        let (y, c) = r.forward(&[], &x, true);
        assert_eq!(y.as_slice(), &[0., 0., 0.5, 2.]);
        let g = Tensor::filled(&[4], 1.0);
        let gx = r.backward(&[], &x, &c, &g, &mut []);
        assert_eq!(gx.as_slice(), &[0., 0., 1., 1.]);
    }

    #[test]
    fn sigmoid_midpoint() {
        let x = Tensor::from_vec(vec![1], vec![0.0]);
        let s = Sigmoid::new();
        let (y, c) = s.forward(&[], &x, true);
        assert!((y.as_slice()[0] - 0.5).abs() < 1e-6);
        let g = Tensor::filled(&[1], 1.0);
        let gx = s.backward(&[], &x, &c, &g, &mut []);
        assert!((gx.as_slice()[0] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn tanh_odd_symmetry() {
        let x = Tensor::from_vec(vec![2], vec![1.3, -1.3]);
        let t = Tanh::new();
        let (y, _) = t.forward(&[], &x, false);
        assert!((y.as_slice()[0] + y.as_slice()[1]).abs() < 1e-6);
    }

    #[test]
    fn tanh_gradient_at_zero_is_one() {
        let x = Tensor::from_vec(vec![1], vec![0.0]);
        let t = Tanh::new();
        let (_, c) = t.forward(&[], &x, true);
        let g = Tensor::filled(&[1], 1.0);
        let gx = t.backward(&[], &x, &c, &g, &mut []);
        assert!((gx.as_slice()[0] - 1.0).abs() < 1e-6);
    }
}
