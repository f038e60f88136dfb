//! Shape-adapter layers.

use crate::layer::{Cache, Layer};
use crate::tensor::Tensor;

/// Flattens `[B, d1, d2, ...]` into `[B, d1·d2·...]`, e.g. between the
/// convolutional feature extractor and the dense classifier head.
#[derive(Default, Clone, Copy)]
pub struct Flatten;

impl Flatten {
    /// Construct a flatten layer.
    pub fn new() -> Self {
        Flatten
    }
}

impl Layer for Flatten {
    fn name(&self) -> &'static str {
        "Flatten"
    }

    fn forward(&self, _p: &[f32], x: &Tensor, _train: bool) -> (Tensor, Cache) {
        let b = x.shape()[0];
        let rest = x.len() / b;
        (x.clone().reshape(vec![b, rest]), Cache::none())
    }

    fn backward(&self, _: &[f32], x: &Tensor, _: &Cache, dy: &Tensor, _: &mut [f32]) -> Tensor {
        dy.clone().reshape(x.shape().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_roundtrip() {
        let x = Tensor::from_fn(&[2, 3, 4], |i| i as f32);
        let f = Flatten::new();
        let (y, c) = f.forward(&[], &x, false);
        assert_eq!(y.shape(), &[2, 12]);
        let gx = f.backward(&[], &x, &c, &y, &mut []);
        assert_eq!(gx.shape(), &[2, 3, 4]);
        assert_eq!(gx.as_slice(), x.as_slice());
    }
}
