//! The [`Layer`] trait: a layer is an architecture, not a parameter store.
//!
//! A layer holds only its dimensions. Its parameters are a borrowed `&[f32]`
//! slice of the model's one flat vector (in [`crate::ParamVec`] order), so a
//! ledger payload is evaluated where it lies and no layer is ever written.
//! Everything a backward pass needs is captured in the [`Cache`] returned by
//! `forward`.

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
/// `p` is the layer's [`Layer::param_count`] parameters, its tensors
/// concatenated in the layer's documented order. `forward` maps an input
/// tensor to an output tensor and records whatever intermediate state
/// `backward` will need. `backward` takes ownership of the gradient of the
/// loss w.r.t. the layer output (so an elementwise layer can mask or
/// reshape it in place), adds the gradient w.r.t. each parameter into
/// `grad_p` (laid out like `p`; [`crate::Sequential`] hands it over zeroed)
/// and, when `input_grad` is set, returns the gradient w.r.t. the input.
/// [`crate::Sequential`] clears `input_grad` for its first layer, whose
/// input is the data batch, so e.g. [`crate::Conv2d`] skips its `Wᵀ·g`
/// GEMM and col2im there.
pub trait Layer: Send + Sync {
    /// Human-readable layer name (used in summaries and error messages).
    fn name(&self) -> &'static str;

    /// Number of learnable scalars in this layer (the length of `p`).
    fn param_count(&self) -> usize {
        0
    }

    /// Run the layer. `train` asks for the cache `backward` needs; layers
    /// that keep large intermediates (e.g. [`crate::Conv2d`]'s padded
    /// planes) skip them when it is `false`.
    fn forward(&self, p: &[f32], x: &Tensor, train: bool) -> (Tensor, Cache);

    /// Backpropagate: add the parameter gradients into `grad_p` and return
    /// the gradient w.r.t. `x` if `input_grad` is set, `None` otherwise.
    /// The parameter gradients do not depend on `input_grad`.
    fn backward(
        &self,
        p: &[f32],
        x: &Tensor,
        cache: &Cache,
        grad_out: Tensor,
        grad_p: &mut [f32],
        input_grad: bool,
    ) -> Option<Tensor>;
}

/// A layer and the initial values of its parameters, as
/// [`crate::Sequential::new`] assembles a model from them. Parameterless
/// layers convert with `.into()`.
pub struct LayerInit {
    /// The layer.
    pub layer: Box<dyn Layer>,
    /// Its [`Layer::param_count`] initial parameters, in the layer's order.
    pub params: Vec<f32>,
}

impl LayerInit {
    /// Pair `layer` with the concatenation of its initial parameter
    /// tensors.
    pub fn new(layer: impl Layer + 'static, tensors: &[Tensor]) -> Self {
        Self {
            layer: Box::new(layer),
            params: tensors.iter().flat_map(|t| t.as_slice()).copied().collect(),
        }
    }
}

impl<L: Layer + 'static> From<L> for LayerInit {
    fn from(layer: L) -> Self {
        Self::new(layer, &[])
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
