//! Shape-adapter layers.

use crate::layer::{Cache, Layer};
use crate::tensor::Tensor;

/// Flattens `[B, d1, d2, ...]` into `[B, d1·d2·...]`, e.g. between the
/// convolutional feature extractor and the dense classifier head.
///
/// Runs in place ([`Layer::in_place`]): the forward pass gives its input a
/// new shape, keeping the old one in [`Cache::dims`], and the backward pass
/// gives the gradient that shape back. No value is copied.
#[derive(Default, Clone, Copy)]
pub(crate) struct Flatten;

impl Layer for Flatten {
    fn name(&self) -> &'static str {
        "Flatten"
    }

    fn in_place(&self) -> bool {
        true
    }

    fn forward_into(
        &self,
        _: &[f32],
        _: Option<&Tensor>,
        y: &mut Tensor,
        cache: &mut Cache,
        _: bool,
    ) {
        crate::workspace::fit(&mut cache.dims, y.rank()).copy_from_slice(y.shape());
        let b = y.shape()[0];
        let rest = y.len() / b;
        y.set_shape([b, rest]);
    }

    fn backward_into(
        &self,
        _: &[f32],
        _: &Tensor,
        _: &Tensor,
        cache: &mut Cache,
        dy: &mut Tensor,
        _: Option<&mut Tensor>,
        _: &mut [f32],
    ) {
        dy.set_shape(&cache.dims);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Allocating;

    #[test]
    fn flatten_roundtrip() {
        let x = Tensor::from_fn(&[2, 3, 4], |i| i as f32);
        let f = Flatten;
        let (y, c) = f.forward(&[], &x, false);
        assert_eq!(y.shape(), &[2, 12]);
        let gx = f
            .backward(&[], &x, &y, &c, y.clone(), &mut [], true)
            .unwrap();
        assert_eq!(gx.shape(), &[2, 3, 4]);
        assert_eq!(gx.as_slice(), x.as_slice());
    }
}
