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

    /// A select, not a branch: the sign of an activation is data the
    /// branch predictor cannot learn, and the select vectorizes. `-0.0` and
    /// NaN pass through unchanged.
    fn forward(&self, _p: &[f32], x: &Tensor, _train: bool) -> (Tensor, Cache) {
        let y = x.as_slice().iter().map(|&v| if v < 0.0 { 0.0 } else { v });
        let y = Tensor::from_vec(x.shape().to_vec(), y.collect());
        (y, Cache::none())
    }

    /// Masks the owned gradient in place: zero where `x <= 0.0`.
    fn backward(
        &self,
        _: &[f32],
        x: &Tensor,
        _: &Cache,
        mut dy: Tensor,
        _: &mut [f32],
        input_grad: bool,
    ) -> Option<Tensor> {
        if !input_grad {
            return None;
        }
        for (gv, &xv) in dy.as_mut_slice().iter_mut().zip(x.as_slice()) {
            *gv = if xv <= 0.0 { 0.0 } else { *gv };
        }
        Some(dy)
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

    fn backward(
        &self,
        _: &[f32],
        _: &Tensor,
        cache: &Cache,
        mut dy: Tensor,
        _: &mut [f32],
        input_grad: bool,
    ) -> Option<Tensor> {
        if !input_grad {
            return None;
        }
        let y = cache.get::<Tensor>();
        for (gv, &yv) in dy.as_mut_slice().iter_mut().zip(y.as_slice()) {
            *gv *= yv * (1.0 - yv);
        }
        Some(dy)
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

    fn backward(
        &self,
        _: &[f32],
        _: &Tensor,
        cache: &Cache,
        mut dy: Tensor,
        _: &mut [f32],
        input_grad: bool,
    ) -> Option<Tensor> {
        if !input_grad {
            return None;
        }
        let y = cache.get::<Tensor>();
        for (gv, &yv) in dy.as_mut_slice().iter_mut().zip(y.as_slice()) {
            *gv *= 1.0 - yv * yv;
        }
        Some(dy)
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
        let gx = r.backward(&[], &x, &c, g, &mut [], true).unwrap();
        assert_eq!(gx.as_slice(), &[0., 0., 1., 1.]);
    }

    /// The branchy ReLU loops the selects replaced, kept as their oracles:
    /// `(y, dL/dx)`.
    fn branchy_relu(x: &[f32], dy: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let mut y = x.to_vec();
        for v in &mut y {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        let mut g = dy.to_vec();
        for (gv, &xv) in g.iter_mut().zip(x) {
            if xv <= 0.0 {
                *gv = 0.0;
            }
        }
        (y, g)
    }

    /// Forward (both modes) and backward equal the branchy oracle bit for
    /// bit on inputs and gradients full of ±0.0, NaN and ±∞.
    #[test]
    fn relu_matches_branchy_oracle_bitwise() {
        use crate::testing::{bits, special_values};
        for (seed, shape) in [vec![1], vec![7], vec![2, 16], vec![3, 33], vec![2, 3, 5, 7]]
            .into_iter()
            .enumerate()
        {
            let n = shape.iter().product();
            let x = Tensor::from_vec(shape.clone(), special_values(seed as u64, n));
            let dy = Tensor::from_vec(shape.clone(), special_values(seed as u64 + 100, n));
            let (want_y, want_g) = branchy_relu(x.as_slice(), dy.as_slice());
            for train in [false, true] {
                let (y, _) = Relu.forward(&[], &x, train);
                assert_eq!(y.shape(), x.shape());
                assert_eq!(bits(y.as_slice()), bits(&want_y), "forward, {shape:?}");
            }
            let g = Relu.backward(&[], &x, &Cache::none(), dy.clone(), &mut [], true);
            let g = g.expect("input gradient asked for");
            assert_eq!(bits(g.as_slice()), bits(&want_g), "backward, {shape:?}");
            assert!(Relu
                .backward(&[], &x, &Cache::none(), dy, &mut [], false)
                .is_none());
        }
    }

    #[test]
    fn sigmoid_midpoint() {
        let x = Tensor::from_vec(vec![1], vec![0.0]);
        let s = Sigmoid::new();
        let (y, c) = s.forward(&[], &x, true);
        assert!((y.as_slice()[0] - 0.5).abs() < 1e-6);
        let g = Tensor::filled(&[1], 1.0);
        let gx = s.backward(&[], &x, &c, g, &mut [], true).unwrap();
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
        let gx = t.backward(&[], &x, &c, g, &mut [], true).unwrap();
        assert!((gx.as_slice()[0] - 1.0).abs() < 1e-6);
    }
}
