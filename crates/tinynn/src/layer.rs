//! The [`Layer`] trait: immutable forward/backward with an explicit cache.
//!
//! Layers never mutate themselves during a pass; everything a backward pass
//! needs is captured in the [`Cache`] returned by `forward`, so a training
//! step reads the model through `&Sequential` and only [`crate::Sgd::step`]
//! writes it.

use crate::tensor::Tensor;
use std::any::Any;

/// Opaque per-call state produced by [`Layer::forward`] and consumed by
/// [`Layer::backward`]. Each layer downcasts to its own concrete type.
pub struct Cache(Box<dyn Any + Send>);

impl Cache {
    /// Wrap a layer-specific cache value.
    pub fn new<T: Any + Send>(value: T) -> Self {
        Cache(Box::new(value))
    }

    /// An empty cache for stateless layers.
    pub fn none() -> Self {
        Cache(Box::new(()))
    }

    /// Downcast to the concrete cache type stored by the producing layer.
    ///
    /// # Panics
    /// Panics if the type does not match — that is a programming error in
    /// the layer pairing `forward`/`backward`.
    pub fn get<T: Any>(&self) -> &T {
        self.0
            .downcast_ref::<T>()
            .expect("layer cache downcast to wrong type")
    }

    /// Downcast if the cache holds a `T`, `None` otherwise (e.g. a layer
    /// whose inference-mode forward stored [`Cache::none`]).
    pub fn try_get<T: Any>(&self) -> Option<&T> {
        self.0.downcast_ref::<T>()
    }
}

/// A differentiable network layer.
///
/// `forward` maps an input tensor to an output tensor and records whatever
/// intermediate state `backward` will need. `backward` receives the gradient
/// of the loss w.r.t. the layer output and returns the gradient w.r.t. the
/// input plus the gradients w.r.t. each parameter, in the same order as
/// [`Layer::params`].
pub trait Layer: Send + Sync {
    /// Human-readable layer name (used in summaries and error messages).
    fn name(&self) -> &'static str;

    /// Run the layer. `train` asks for the cache `backward` needs; layers
    /// that keep large intermediates (e.g. [`crate::Conv2d`]'s patch
    /// matrices) skip them when it is `false`.
    fn forward(&self, x: &Tensor, train: bool) -> (Tensor, Cache);

    /// Backpropagate. Returns `(grad_input, grad_params)` where
    /// `grad_params[i]` matches `self.params()[i]` in shape and order.
    fn backward(&self, x: &Tensor, cache: &Cache, grad_out: &Tensor) -> (Tensor, Vec<Tensor>);

    /// Borrow the layer's learnable parameters (possibly empty).
    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    /// Mutably borrow the layer's learnable parameters, in the same order.
    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    /// Total number of learnable scalars in this layer.
    fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_roundtrip() {
        let c = Cache::new(vec![1u32, 2, 3]);
        assert_eq!(c.get::<Vec<u32>>(), &vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "downcast")]
    fn cache_wrong_type_panics() {
        let c = Cache::new(42u32);
        let _ = c.get::<String>();
    }

    #[test]
    fn cache_none_is_unit() {
        let c = Cache::none();
        let _ = c.get::<()>();
    }
}
