//! The ReLU activation layer, and the scalar sigmoid of the LSTM gates.
//!
//! **ReLU runs in place** ([`Layer::in_place`]): its forward pass rewrites
//! the preceding layer's output, in inference and in training alike, and
//! its backward pass masks the output gradient where it lies. The mask is
//! read from the output `y = if x < 0 { 0 } else { x }`, which no longer
//! holds `x`, and it equals the mask on the input lane for lane:
//!
//! | `x` | `y` | `x <= 0` | `y <= 0` |
//! |---|---|---|---|
//! | `< 0`, `-∞` | `+0.0` | yes | yes |
//! | `±0.0` | `x` | yes | yes |
//! | `> 0`, `+∞` | `x` | no | no |
//! | NaN | NaN | no | no |
//!
//! The layers that may follow a ReLU in place keep that mask: Flatten
//! only reshapes, and ReLU is idempotent.

use crate::layer::{Cache, Layer};
use crate::tensor::Tensor;

/// Rectified linear unit: `max(0, x)`, in place.
#[derive(Default, Clone, Copy)]
pub(crate) struct Relu;

impl Layer for Relu {
    fn name(&self) -> &'static str {
        "Relu"
    }

    fn in_place(&self) -> bool {
        true
    }

    /// A select, not a branch: the sign of an activation is data the
    /// branch predictor cannot learn, and the select vectorizes. `-0.0` and
    /// NaN pass through unchanged.
    fn forward_into(&self, _: &[f32], _: Option<&Tensor>, y: &mut Tensor, _: &mut Cache, _: bool) {
        for v in y.as_mut_slice() {
            *v = if *v < 0.0 { 0.0 } else { *v };
        }
    }

    /// Masks the gradient in place: zero where `y <= 0.0`, which is where
    /// `x <= 0.0` (see the module docs).
    fn backward_into(
        &self,
        _: &[f32],
        _: &Tensor,
        y: &Tensor,
        _: &mut Cache,
        dy: &mut Tensor,
        _: Option<&mut Tensor>,
        _: &mut [f32],
    ) {
        for (gv, &yv) in dy.as_mut_slice().iter_mut().zip(y.as_slice()) {
            *gv = if yv <= 0.0 { 0.0 } else { *gv };
        }
    }
}

/// Scalar sigmoid, shared with the LSTM gates.
#[inline]
pub(crate) fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Allocating;

    #[test]
    fn relu_forward_backward() {
        let x = Tensor::from_vec(vec![4], vec![-1., 0., 0.5, 2.]);
        let r = Relu;
        let (y, c) = r.forward(&[], &x, true);
        assert_eq!(y.as_slice(), &[0., 0., 0.5, 2.]);
        let g = Tensor::from_fn(&[4], |_| 1.0);
        let gx = r.backward(&[], &x, &y, &c, g, &mut [], true).unwrap();
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
    /// bit on inputs and gradients full of ±0.0, NaN and ±∞: the in-place
    /// backward's mask on the output is the oracle's mask on the input.
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
            let (y, c) = Relu.forward(&[], &x, true);
            let g = Relu.backward(&[], &x, &y, &c, dy.clone(), &mut [], true);
            let g = g.expect("input gradient asked for");
            assert_eq!(bits(g.as_slice()), bits(&want_g), "backward, {shape:?}");
            assert!(Relu.backward(&[], &x, &y, &c, dy, &mut [], false).is_none());
        }
    }
}
