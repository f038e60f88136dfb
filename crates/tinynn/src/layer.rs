//! The [`Layer`] trait: a layer is an architecture, not a parameter store,
//! and it owns no buffer either.
//!
//! A layer holds only its dimensions. Its parameters are a borrowed `&[f32]`
//! slice of the model's one flat vector (in [`crate::ParamVec`] order), so a
//! ledger payload is evaluated where it lies and no layer is ever written.
//!
//! **Who owns which buffer.** Every tensor a layer writes is borrowed from
//! its caller: [`Layer::forward_into`] writes its output into `y` and
//! [`Layer::backward_into`] its input gradient into `dx`, each resized in
//! place ([`Tensor::resize`]), and whatever the backward pass needs from
//! the forward pass, or reuses as scratch, lives in the [`Cache`] the
//! caller hands both. [`crate::Sequential`] keeps all of them in its
//! thread's workspace, one [`Cache`] and one output per layer index, so a
//! warm pass allocates nothing.
//!
//! **In place.** A layer whose output is its input rewritten
//! ([`Layer::in_place`]: [`crate::Relu`], [`crate::Flatten`]) gets no
//! separate input and no separate output buffer: `y` holds its input on
//! entry and its output on return, and `dy` becomes its input gradient.

use crate::tensor::Tensor;

/// What a layer keeps from its forward pass for its backward pass, and the
/// scratch it reuses from call to call.
///
/// The buffers are plain typed vectors, numbered by each layer in its own
/// docs, not a layer-specific type. A workspace slot is keyed by layer
/// index and shared by every model its thread runs, so another model's
/// layer at the same index finds these buffers holding its values. It
/// reuses their capacity, and it writes each value before it reads it.
#[derive(Clone, Debug, Default)]
pub struct Cache {
    /// `f32` buffers.
    pub floats: Buffers,
    /// An index buffer (e.g. `crate::MaxPool2d`'s argmax).
    pub indices: Vec<u32>,
    /// Sizes or offsets (e.g. `crate::Flatten`'s input shape).
    pub dims: Vec<usize>,
}

/// A [`Cache`]'s numbered `f32` buffers.
#[derive(Clone, Debug, Default)]
pub struct Buffers(pub(crate) Vec<Vec<f32>>);

impl Buffers {
    /// Buffers `0..N`, each borrowed on its own; a buffer never used before
    /// is empty.
    pub(crate) fn first<const N: usize>(&mut self) -> [&mut Vec<f32>; N] {
        if self.0.len() < N {
            crate::workspace::note_grow();
            self.0.resize_with(N, Vec::new);
        }
        let head: &mut [Vec<f32>; N] = (&mut self.0[..N]).try_into().expect("N buffers");
        head.each_mut()
    }
}

/// A differentiable network layer.
///
/// `p` is the layer's [`Layer::param_count`] parameters, its tensors
/// concatenated in the layer's documented order.
/// [`Layer::forward_into`] maps the input to the output and records in the
/// [`Cache`] whatever [`Layer::backward_into`] will need. `backward_into`
/// reads the gradient of the loss w.r.t. the layer output, adds the
/// gradient w.r.t. each parameter into `grad_p` (laid out like `p`;
/// [`crate::Sequential`] hands it over zeroed) and, when `dx` is given,
/// writes the gradient w.r.t. the input there. [`crate::Sequential`] gives
/// its first layer no `dx`, since that input is the data batch, so e.g.
/// [`crate::Conv2d`] skips its input-gradient kernel there.
pub trait Layer: Send + Sync {
    /// Human-readable layer name (used in summaries and error messages).
    fn name(&self) -> &'static str;

    /// Number of learnable scalars in this layer (the length of `p`).
    fn param_count(&self) -> usize {
        0
    }

    /// `true` for a layer that rewrites its input into its output in place
    /// (see the module docs). Its [`Layer::forward_into`] is called with
    /// `x` set to `None` and the input in `y`. Its
    /// [`Layer::backward_into`] finds its output in `y` (as any in-place
    /// layer after it left it; `x` is not to be read, it may be the same
    /// buffer), gets no `dx` and rewrites `dy` into its input gradient.
    fn in_place(&self) -> bool {
        false
    }

    /// Run the layer on `x` (`None` for an in-place layer), writing the
    /// output into `y` and into `cache` what the backward pass reads.
    /// `train` says a backward pass follows; a layer may skip state only
    /// that pass reads (e.g. [`crate::MaxPool2d`]'s argmax) when it is
    /// `false`.
    fn forward_into(
        &self,
        p: &[f32],
        x: Option<&Tensor>,
        y: &mut Tensor,
        cache: &mut Cache,
        train: bool,
    );

    /// Backpropagate through the training-mode [`Layer::forward_into`]
    /// that read `x`, wrote `y` and filled `cache`: add the parameter
    /// gradients into `grad_p` and, if `dx` is given, write the gradient
    /// w.r.t. `x` into it. The parameter gradients do not depend on `dx`.
    /// `dy` may be left rewritten.
    #[allow(clippy::too_many_arguments)]
    fn backward_into(
        &self,
        p: &[f32],
        x: &Tensor,
        y: &Tensor,
        cache: &mut Cache,
        dy: &mut Tensor,
        dx: Option<&mut Tensor>,
        grad_p: &mut [f32],
    );
}

/// A layer and the initial values of its parameters, as
/// [`crate::Sequential::new`] assembles a model from them. Parameterless
/// layers convert with `.into()`.
pub struct LayerInit {
    /// The layer.
    pub layer: Box<dyn Layer>,
    /// Its `Layer::param_count` initial parameters, in the layer's order.
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

/// The allocating form of a layer's passes, on fresh buffers every call:
/// the differential oracle of the layer tests.
#[cfg(test)]
pub(crate) trait Allocating: Layer {
    /// [`Layer::forward_into`] into a fresh output and cache; an in-place
    /// layer rewrites a copy of `x`.
    fn forward(&self, p: &[f32], x: &Tensor, train: bool) -> (Tensor, Cache) {
        let mut cache = Cache::default();
        let mut y = Tensor::default();
        if self.in_place() {
            y.copy_from(x);
            self.forward_into(p, None, &mut y, &mut cache, train);
        } else {
            self.forward_into(p, Some(x), &mut y, &mut cache, train);
        }
        (y, cache)
    }

    /// [`Layer::backward_into`] after [`Allocating::forward`] on `x`
    /// returned `(y, cache)`: the input gradient if `input_grad` is set.
    /// For an in-place layer `x` and `y` are both its output.
    #[allow(clippy::too_many_arguments)]
    fn backward(
        &self,
        p: &[f32],
        x: &Tensor,
        y: &Tensor,
        cache: &Cache,
        mut dy: Tensor,
        grad_p: &mut [f32],
        input_grad: bool,
    ) -> Option<Tensor> {
        let mut cache = cache.clone();
        if self.in_place() {
            self.backward_into(p, y, y, &mut cache, &mut dy, None, grad_p);
            return input_grad.then_some(dy);
        }
        let mut dx = Tensor::default();
        let want = input_grad.then_some(&mut dx);
        self.backward_into(p, x, y, &mut cache, &mut dy, want, grad_p);
        input_grad.then_some(dx)
    }
}

#[cfg(test)]
impl<L: Layer + ?Sized> Allocating for L {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Buffers keep their values and capacity between borrows, and a
    /// buffer past those used so far starts empty.
    #[test]
    fn cache_buffers_persist_between_borrows() {
        let mut c = Cache::default();
        let [a, b] = c.floats.first();
        a.extend([1.0, 2.0]);
        b.push(3.0);
        let [a, b, fresh] = c.floats.first();
        assert_eq!((a.as_slice(), b.as_slice()), (&[1.0, 2.0][..], &[3.0][..]));
        assert!(fresh.is_empty());
    }
}
