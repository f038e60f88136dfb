//! [`Sequential`]: a shared layer stack plus one flat parameter vector.
//!
//! **Who owns which buffer.** A model owns its parameters and nothing
//! else. Every pass borrows its thread's workspace for the call, a
//! `thread_local!` set of buffers that outlives every call (as
//! [`crate::gemm`] keeps its pack buffers). Inference ping-pongs two
//! activation buffers. A training pass writes each layer's output into the
//! workspace slot of its index (the tape) and its [`crate::Cache`] beside
//! it; the backward pass ping-pongs two gradient buffers down the stack
//! and adds into one flat parameter gradient. A layer that runs in place
//! ([`Layer::in_place`]: ReLU, Flatten) rewrites the buffer that holds its
//! input, so its output stays in that buffer and its gradient in the
//! buffer that brought it. The public calls copy out only what they
//! return: [`Sequential::predict`] the logits and
//! [`Sequential::loss_and_grads`] the gradient; [`Sequential::evaluate`]
//! and [`crate::Sgd::train_step`] copy nothing.
//!
//! The workspace is taken out of its `thread_local!` for the call and put
//! back after it, so a re-entrant call would build a fresh one instead of
//! panicking. Its buffers grow to the largest batch and model a thread
//! runs and never shrink, so after warm-up no pass allocates.

use crate::layer::{Layer, LayerInit};
use crate::loss;
use crate::tensor::Tensor;
use crate::workspace::{with_workspace, zeroed, Workspace};
use std::sync::Arc;

/// The architecture: layers in order and where each one's parameters
/// start in the flat vector (`offsets[i]..offsets[i + 1]`).
struct Stack {
    layers: Vec<Box<dyn Layer>>,
    offsets: Vec<usize>,
}

/// A feed-forward stack of layers executed in order, with its parameters.
///
/// The layers sit behind an `Arc` and the parameters in one `Vec<f32>` in
/// [`crate::ParamVec`] order, so a clone costs one parameter copy and
/// [`Self::with_params`] none. Every pass reads the parameters through a
/// borrowed slice: [`Self::evaluate_params`] scores any architecturally
/// identical parameter vector in place, without loading it into a model.
#[derive(Clone)]
pub struct Sequential {
    stack: Arc<Stack>,
    /// Written only by [`crate::Sgd::step`].
    pub(crate) params: Vec<f32>,
}

impl Sequential {
    /// Compose the given layers, concatenating their initial parameters.
    ///
    /// # Panics
    /// Panics if a layer's initial values do not match its parameter count.
    pub fn new(layers: Vec<LayerInit>) -> Self {
        let mut offsets = vec![0];
        let mut params = Vec::new();
        let layers = layers
            .into_iter()
            .map(|init| {
                assert_eq!(
                    init.params.len(),
                    init.layer.param_count(),
                    "{}: initial parameter count mismatch",
                    init.layer.name()
                );
                params.extend_from_slice(&init.params);
                offsets.push(params.len());
                init.layer
            })
            .collect();
        Self {
            stack: Arc::new(Stack { layers, offsets }),
            params,
        }
    }

    /// The same architecture carrying `params` instead (no copy; the layer
    /// stack is shared).
    ///
    /// # Panics
    /// Panics if the length does not match [`Self::param_count`].
    pub fn with_params(&self, params: Vec<f32>) -> Self {
        assert_eq!(
            params.len(),
            self.param_count(),
            "parameter vector length mismatch"
        );
        Self {
            stack: Arc::clone(&self.stack),
            params,
        }
    }

    /// Borrow the layer stack.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.stack.layers
    }

    /// The flat parameter vector, in [`crate::ParamVec`] order.
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// Consume the model, returning its flat parameter vector.
    pub fn into_params(self) -> Vec<f32> {
        self.params
    }

    /// Layer `i`'s parameters within a flat vector `p`.
    fn layer_params<'p>(&self, p: &'p [f32], i: usize) -> &'p [f32] {
        &p[self.stack.offsets[i]..self.stack.offsets[i + 1]]
    }

    /// Total learnable scalar count.
    pub fn param_count(&self) -> usize {
        self.params.len()
    }

    /// The inference-mode forward pass under parameters `p`, on `ws`'s two
    /// ping-pong activation buffers: every layer reads its slice of `p` in
    /// place. Returns the logits (`x` itself for a model with no layers).
    pub(crate) fn infer<'a>(&self, ws: &'a mut Workspace, p: &[f32], x: &'a Tensor) -> &'a Tensor {
        assert_eq!(
            p.len(),
            self.param_count(),
            "parameter vector length mismatch"
        );
        ws.reserve_layers(self.layers().len());
        let Workspace { acts, caches, .. } = ws;
        // The buffer holding the current activation; `None` while it is `x`.
        let mut cur: Option<usize> = None;
        for (i, layer) in self.layers().iter().enumerate() {
            let (pi, cache) = (self.layer_params(p, i), &mut caches[i]);
            let [a, b] = &mut *acts;
            cur = Some(match (cur, layer.in_place()) {
                (None, false) => {
                    layer.forward_into(pi, Some(x), a, cache, false);
                    0
                }
                (Some(c), false) => {
                    let (src, dst) = if c == 0 { (a, b) } else { (b, a) };
                    layer.forward_into(pi, Some(src), dst, cache, false);
                    1 - c
                }
                (at, true) => {
                    let c = at.unwrap_or_else(|| {
                        a.copy_from(x);
                        0
                    });
                    layer.forward_into(pi, None, &mut acts[c], cache, false);
                    c
                }
            });
        }
        match cur {
            Some(c) => &acts[c],
            None => x,
        }
    }

    /// The training-mode forward pass on the model's own parameters: layer
    /// `i`'s output goes into `ws.outs[ws.at[i]]` and its cache into
    /// `ws.caches[i]`. Layer `i` reads `x` (`i = 0`) or output `i - 1`.
    fn forward_train(&self, ws: &mut Workspace, x: &Tensor) {
        ws.reserve_layers(self.layers().len());
        let Workspace {
            outs, at, caches, ..
        } = ws;
        for (i, layer) in self.layers().iter().enumerate() {
            let (pi, cache) = (self.layer_params(&self.params, i), &mut caches[i]);
            at[i] = if layer.in_place() {
                let j = if i == 0 {
                    outs[0].copy_from(x);
                    0
                } else {
                    at[i - 1]
                };
                layer.forward_into(pi, None, &mut outs[j], cache, true);
                j
            } else {
                let (done, rest) = outs.split_at_mut(i);
                let input = if i == 0 { x } else { &done[at[i - 1]] };
                layer.forward_into(pi, Some(input), &mut rest[0], cache, true);
                i
            };
        }
    }

    /// Backward pass from the loss gradient in `ws.grads[0]` through the
    /// tape [`Self::forward_train`] recorded on `x`: the flat parameter
    /// gradient goes into `ws.grad_p`, and the index of the `ws.grads`
    /// buffer that ends up holding the gradient w.r.t. `x` (meaningful if
    /// `input_grad` is set) is returned. Every layer but the first is
    /// always asked for its input gradient: it is the output gradient of
    /// the layer below.
    fn backward(&self, ws: &mut Workspace, x: &Tensor, input_grad: bool) -> usize {
        let Workspace {
            outs,
            at,
            caches,
            grads,
            grad_p,
            ..
        } = ws;
        let grad_p = zeroed(grad_p, self.param_count());
        let mut c = 0;
        for (i, layer) in self.layers().iter().enumerate().rev() {
            let input = if i == 0 { x } else { &outs[at[i - 1]] };
            let output = &outs[at[i]];
            let (lo, hi) = (self.stack.offsets[i], self.stack.offsets[i + 1]);
            let p = self.layer_params(&self.params, i);
            let gp = &mut grad_p[lo..hi];
            let [g0, g1] = &mut *grads;
            let (dy, dx) = if c == 0 { (g0, g1) } else { (g1, g0) };
            if layer.in_place() {
                layer.backward_into(p, input, output, &mut caches[i], dy, None, gp);
            } else {
                let dx = (i > 0 || input_grad).then_some(dx);
                layer.backward_into(p, input, output, &mut caches[i], dy, dx, gp);
                c = 1 - c;
            }
        }
        c
    }

    /// Forward, softmax-CE loss and backward on one batch, leaving the flat
    /// gradient in `ws.grad_p` and, if `input_grad` is set (then every
    /// layer computes its input gradient), the gradient w.r.t. `x` in
    /// `ws.grads[gx]`. Returns `(loss, gx)`.
    pub(crate) fn train_pass(
        &self,
        ws: &mut Workspace,
        x: &Tensor,
        targets: &[u32],
        input_grad: bool,
    ) -> (f32, usize) {
        self.forward_train(ws, x);
        let n = self.layers().len();
        let Workspace {
            outs, at, grads, ..
        } = &mut *ws;
        let logits = if n == 0 { x } else { &outs[at[n - 1]] };
        let loss_value = loss::softmax_cross_entropy_into(logits, targets, &mut grads[0]);
        (loss_value, self.backward(ws, x, input_grad))
    }

    /// [`Self::train_pass`] on this thread's workspace, copying out the
    /// flat gradient and, if `input_grad` is set, the gradient w.r.t. `x`.
    pub(crate) fn train_pass_owned(
        &self,
        x: &Tensor,
        targets: &[u32],
        input_grad: bool,
    ) -> (f32, Vec<f32>, Option<Tensor>) {
        with_workspace(|ws| {
            let (loss_value, gx) = self.train_pass(ws, x, targets, input_grad);
            let gx = input_grad.then(|| ws.grads[gx].clone());
            (loss_value, ws.grad_p.clone(), gx)
        })
    }

    /// Inference-mode forward pass (no caches kept for a backward pass).
    pub fn predict(&self, x: &Tensor) -> Tensor {
        with_workspace(|ws| self.infer(ws, &self.params, x).clone())
    }

    /// Forward + softmax-CE loss + backward on one batch. The gradient is
    /// flat, in [`crate::ParamVec`] order, and copied out of the workspace;
    /// [`crate::Sgd::train_step`] applies it where it lies instead.
    ///
    /// For sequence models, `targets` holds one class per *row* of the final
    /// logits (i.e. `B·T` entries for `[B, T, V]` output).
    ///
    /// The first layer is not asked for the gradient w.r.t. its input, the
    /// data batch: no caller reads it.
    pub fn loss_and_grads(&self, x: &Tensor, targets: &[u32]) -> (f32, Vec<f32>) {
        let (loss_value, grads, _) = self.train_pass_owned(x, targets, false);
        (loss_value, grads)
    }

    /// Inference-mode loss and accuracy on a labelled batch.
    pub fn evaluate(&self, x: &Tensor, targets: &[u32]) -> (f32, f32) {
        self.evaluate_params(&self.params, x, targets)
    }

    /// Inference-mode loss and accuracy of parameters `p` (e.g. a ledger
    /// payload, read in place) under this architecture.
    ///
    /// # Panics
    /// Panics if `p.len()` differs from [`Self::param_count`].
    pub fn evaluate_params(&self, p: &[f32], x: &Tensor, targets: &[u32]) -> (f32, f32) {
        with_workspace(|ws| {
            let logits = self.infer(ws, p, x);
            (
                loss::cross_entropy(logits, targets),
                loss::accuracy(logits, targets),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activations::Relu;
    use crate::dense::Dense;
    use crate::rng::seeded;

    fn tiny_model(seed: u64) -> Sequential {
        let mut rng = seeded(seed);
        Sequential::new(vec![
            Dense::he(4, 8, &mut rng),
            Relu.into(),
            Dense::xavier(8, 3, &mut rng),
        ])
    }

    #[test]
    fn param_count_sums_every_layer() {
        let m = tiny_model(0);
        assert_eq!(m.param_count(), 4 * 8 + 8 + 8 * 3 + 3);
    }

    #[test]
    fn loss_decreases_with_sgd() {
        use crate::optim::Sgd;
        let mut m = tiny_model(1);
        let x = Tensor::from_fn(&[8, 4], |i| ((i * 37 % 17) as f32 - 8.0) * 0.1);
        let t: Vec<u32> = (0..8).map(|i| (i % 3) as u32).collect();
        let mut sgd = Sgd::new(0.5);
        let (l0, g) = m.loss_and_grads(&x, &t);
        sgd.step(&mut m, &g);
        for _ in 0..50 {
            let (_, g) = m.loss_and_grads(&x, &t);
            sgd.step(&mut m, &g);
        }
        let (l1, _) = m.loss_and_grads(&x, &t);
        assert!(l1 < l0 * 0.5, "loss should halve: {l0} -> {l1}");
    }

    #[test]
    fn evaluate_reports_loss_and_accuracy() {
        let m = tiny_model(5);
        let x = Tensor::from_fn(&[6, 4], |i| (i as f32).cos());
        let t = [0u32, 1, 2, 0, 1, 2];
        let (l, a) = m.evaluate(&x, &t);
        assert!(l > 0.0);
        assert!((0.0..=1.0).contains(&a));
    }

    #[test]
    fn evaluate_params_equals_evaluating_a_loaded_model() {
        let arch = tiny_model(6);
        let other = tiny_model(7);
        let x = Tensor::from_fn(&[5, 4], |i| (i as f32 * 0.7).sin());
        let t = [2u32, 1, 0, 1, 2];
        let (l, a) = arch.evaluate_params(other.params(), &x, &t);
        let (l2, a2) = arch.with_params(other.params().to_vec()).evaluate(&x, &t);
        assert_eq!((l.to_bits(), a.to_bits()), (l2.to_bits(), a2.to_bits()));
        assert_eq!(other.evaluate(&x, &t), (l, a));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn evaluate_params_rejects_wrong_length() {
        let m = tiny_model(8);
        let _ = m.evaluate_params(&[0.0; 3], &Tensor::zeros(&[1, 4]), &[0]);
    }

    /// Skipping the first layer's input gradient moves no bit of the
    /// parameter gradient, for a first layer of every kind the zoo uses
    /// (Dense, Conv2d, Embedding) and for a bare LSTM.
    #[test]
    fn skipped_input_grad_matches_full_backward_bitwise() {
        use crate::lstm::Lstm;
        use crate::testing::bits;
        use crate::zoo::{char_lstm, femnist_cnn, mlp, CnnConfig};
        let mut rng = seeded(10);
        let ramp = |i: usize| ((i * 37 % 101) as f32 - 50.0) / 50.0;
        let cases = [
            (
                "mlp",
                mlp(8, &[16], 4, &mut rng),
                Tensor::from_fn(&[7, 8], ramp),
                vec![0, 1, 2, 3, 0, 1, 2],
            ),
            (
                "cnn",
                femnist_cnn(16, 10, CnnConfig::scaled(), &mut rng),
                Tensor::from_fn(&[5, 1, 16, 16], |i| (ramp(i) + 1.0) / 2.0),
                vec![3, 9, 0, 4, 7],
            ),
            (
                "char_lstm",
                char_lstm(12, 4, 6, 2, &mut rng),
                Tensor::from_fn(&[2, 5], |i| (i * 7 % 12) as f32),
                (0..10).map(|i| (i * 5 % 12) as u32).collect(),
            ),
            (
                "lstm",
                Sequential::new(vec![
                    Lstm::init(3, 5, &mut rng),
                    Dense::xavier(5, 4, &mut rng),
                ]),
                Tensor::from_fn(&[2, 6, 3], ramp),
                (0..12).map(|i| (i % 4) as u32).collect(),
            ),
        ];
        for (name, m, x, t) in cases {
            let (loss, grads) = m.loss_and_grads(&x, &t);
            let (full_loss, full_grads, gx) = m.train_pass_owned(&x, &t, true);
            assert_eq!(loss.to_bits(), full_loss.to_bits(), "{name}: loss");
            assert_eq!(bits(&grads), bits(&full_grads), "{name}: gradient");
            assert_eq!(gx.expect("asked for").shape(), x.shape(), "{name}");
            assert!(m.train_pass_owned(&x, &t, false).2.is_none(), "{name}");
        }
    }

    #[test]
    fn with_params_shares_the_stack() {
        let m = tiny_model(9);
        let n = m.with_params(vec![0.5; m.param_count()]);
        assert!(Arc::ptr_eq(&m.stack, &n.stack));
        assert!(n.params().iter().all(|&v| v == 0.5));
    }
}
