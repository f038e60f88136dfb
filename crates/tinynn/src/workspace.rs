//! The per-thread [`Workspace`]: every buffer a [`crate::Sequential`] pass
//! writes, kept from one call to the next.
//!
//! Outputs, caches and gradients allocated afresh by every layer and freed
//! together at the end of a pass let the allocator return the heap top to
//! the kernel, and the next pass page-faults it back in. So one workspace
//! per thread owns them (the "buffers that outlive one call" of Zhang,
//! Franchetti and Low, ICML 2018), as [`crate::gemm`] keeps its pack
//! buffers:
//!
//! - per layer index: the training output (the tape) and the layer's
//!   [`Cache`] — what its backward pass reads (Conv2d's padded planes,
//!   MaxPool2d's argmax, ...) and the scratch it reuses (Conv2d's
//!   transposed gradient, gradient rows and regrouped weights);
//! - two ping-pong activations for inference and two for the gradient
//!   flowing down a backward pass, whose buffers hold every layer's input
//!   gradient in turn (one slot per layer instead faulted less but ran
//!   `sim_cnn` ≈ 20 % slower);
//! - the flat parameter gradient.
//!
//! Buffers are sized by capacity and never shrink, so batches of any row
//! count and models of any architecture alternate on one thread without
//! allocating once each buffer has seen its largest use. A slot keyed by
//! layer index is shared by every model the thread runs: a [`Cache`] holds
//! plain typed buffers, not a layer-specific type, so another model's
//! layer at the same index reuses their capacity and rewrites them before
//! it reads them.
//!
//! Reuse changes no value: a buffer that a kernel accumulates into is
//! zeroed exactly where a fresh `vec![0.0; n]` stood before, and every
//! other buffer is written in full before it is read
//! (`workspace_reuse_is_bitwise_invisible` runs every pass on a workspace
//! filled with NaN).

use crate::layer::Cache;
use crate::tensor::Tensor;
use std::cell::Cell;

/// Every buffer of one thread's passes; see the module docs.
#[derive(Default)]
pub(crate) struct Workspace {
    /// Layer `i`'s training output, unless layer `i` runs in place.
    pub(crate) outs: Vec<Tensor>,
    /// The index into `outs` that holds layer `i`'s output: `i`, or for a
    /// layer that runs in place, its input's index.
    pub(crate) at: Vec<usize>,
    /// Layer `i`'s cache and scratch.
    pub(crate) caches: Vec<Cache>,
    /// The inference pass's ping-pong activations.
    pub(crate) acts: [Tensor; 2],
    /// The backward pass's ping-pong gradients, the loss gradient first.
    pub(crate) grads: [Tensor; 2],
    /// The flat parameter gradient, in [`crate::ParamVec`] order.
    pub(crate) grad_p: Vec<f32>,
}

impl Workspace {
    /// Make room for an `n`-layer model. Slots are only ever added, so a
    /// longer model's buffers survive a shorter model's pass.
    pub(crate) fn reserve_layers(&mut self, n: usize) {
        if self.outs.len() < n {
            note_grow();
            self.outs.resize_with(n, Tensor::default);
            self.at.resize(n, 0);
            self.caches.resize_with(n, Cache::default);
        }
    }

    /// Fill every buffer up to its capacity with NaN (index buffers with
    /// their largest value), so a test sees any value that a pass reads
    /// before writing it.
    #[cfg(test)]
    pub(crate) fn poison(&mut self) {
        fn nan(v: &mut Vec<f32>) {
            v.resize(v.capacity(), f32::NAN);
            v.fill(f32::NAN);
        }
        let tensors = self
            .outs
            .iter_mut()
            .chain(&mut self.acts)
            .chain(&mut self.grads);
        for t in tensors {
            t.poison();
        }
        for c in &mut self.caches {
            c.floats.0.iter_mut().for_each(nan);
            c.indices.resize(c.indices.capacity(), u32::MAX);
            c.indices.fill(u32::MAX);
            c.dims.resize(c.dims.capacity(), usize::MAX);
            c.dims.fill(usize::MAX);
        }
        nan(&mut self.grad_p);
    }
}

thread_local! {
    /// This thread's workspace, out of its slot while a pass uses it.
    static SPARE: Cell<Option<Workspace>> = const { Cell::new(None) };
}

/// Run `f` on this thread's workspace. The workspace is taken out of the
/// thread-local slot for the call and put back after it, so a re-entrant
/// call (none exists today) would build a fresh one instead of panicking.
pub(crate) fn with_workspace<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
    let mut ws = SPARE.take().unwrap_or_default();
    let out = f(&mut ws);
    SPARE.set(Some(ws));
    out
}

/// Give `buf` length `n`, growing its capacity only if `n` exceeds it. The
/// first `min(len, n)` values are left as they were: the caller writes
/// every value it reads.
pub(crate) fn fit<T: Copy + Default>(buf: &mut Vec<T>, n: usize) -> &mut [T] {
    if n > buf.capacity() {
        note_grow();
    }
    buf.resize(n, T::default());
    buf
}

/// [`fit`], then zero every value: for buffers a kernel accumulates into.
pub(crate) fn zeroed<T: Copy + Default>(buf: &mut Vec<T>, n: usize) -> &mut [T] {
    let out = fit(buf, n);
    out.fill(T::default());
    out
}

#[cfg(test)]
thread_local! {
    static GROWS: Cell<u64> = const { Cell::new(0) };
}

/// Count one buffer growth on this thread (tests only).
#[inline]
pub(crate) fn note_grow() {
    #[cfg(test)]
    GROWS.set(GROWS.get() + 1);
}

/// Buffer growths on this thread so far.
#[cfg(test)]
pub(crate) fn grows() -> u64 {
    GROWS.get()
}

/// Replace this thread's workspace (tests only: to start from a cold or a
/// poisoned one).
#[cfg(test)]
pub(crate) fn install(ws: Workspace) {
    SPARE.set(Some(ws));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Dense;
    use crate::layer::Allocating;
    use crate::lstm::Lstm;
    use crate::model::Sequential;
    use crate::rng::seeded;
    use crate::testing::{bits, values};
    use crate::zoo::{char_lstm, femnist_cnn, mlp, CnnConfig};

    /// The row counts of the schedule: full, ragged and single-row batches.
    const ROWS: [usize; 5] = [16, 3, 16, 8, 1];

    /// The four architectures, and for each a batch of `rows` rows with
    /// its targets.
    #[allow(clippy::type_complexity)]
    fn models() -> Vec<(
        &'static str,
        Sequential,
        Box<dyn Fn(usize) -> (Tensor, Vec<u32>)>,
    )> {
        let mut rng = seeded(21);
        vec![
            (
                "mlp",
                mlp(8, &[16], 4, &mut rng),
                Box::new(|rows| {
                    let x = Tensor::from_vec(vec![rows, 8], values(rows as u64, rows * 8));
                    (x, (0..rows).map(|i| (i % 4) as u32).collect())
                }),
            ),
            (
                "scaled cnn",
                femnist_cnn(16, 10, CnnConfig::scaled(), &mut rng),
                Box::new(|rows| {
                    let x = values(rows as u64 + 50, rows * 256);
                    let x = Tensor::from_vec(vec![rows, 1, 16, 16], x);
                    (x, (0..rows).map(|i| (i * 7 % 10) as u32).collect())
                }),
            ),
            (
                "char_lstm",
                char_lstm(12, 4, 6, 2, &mut rng),
                Box::new(|rows| {
                    let x = Tensor::from_fn(&[rows, 5], |i| ((i * 7 + rows) % 12) as f32);
                    (x, (0..rows * 5).map(|i| (i * 5 % 12) as u32).collect())
                }),
            ),
            (
                "lstm",
                Sequential::new(vec![
                    Lstm::init(3, 5, &mut rng),
                    Dense::xavier(5, 4, &mut rng),
                ]),
                Box::new(|rows| {
                    let x = Tensor::from_vec(vec![rows, 6, 3], values(rows as u64 + 90, rows * 18));
                    (x, (0..rows * 6).map(|i| (i % 4) as u32).collect())
                }),
            ),
        ]
    }

    /// What one call observably produces: the logits of an inference
    /// pass, or a training pass's loss, parameter gradient and (when
    /// asked) input gradient, as bit patterns.
    type Outcome = (Vec<u32>, Vec<u32>, Option<Vec<u32>>);

    /// Mode 0 is inference; modes 1 and 2 train without and with the
    /// input gradient. Runs on `ws`.
    fn run(ws: &mut Workspace, m: &Sequential, x: &Tensor, t: &[u32], mode: usize) -> Outcome {
        if mode == 0 {
            return (bits(m.infer(ws, m.params(), x).as_slice()), vec![], None);
        }
        let (loss, gx) = m.train_pass(ws, x, t, mode == 2);
        let gx = (mode == 2).then(|| bits(ws.grads[gx].as_slice()));
        (vec![loss.to_bits()], bits(&ws.grad_p), gx)
    }

    /// The allocating oracle: every layer on fresh buffers through
    /// [`Allocating`], with the tape of whole outputs the workspace
    /// replaced.
    fn oracle(m: &Sequential, x: &Tensor, t: &[u32], mode: usize) -> Outcome {
        let mut offsets = vec![0];
        for layer in m.layers() {
            offsets.push(offsets.last().unwrap() + layer.param_count());
        }
        let p = |i: usize| &m.params()[offsets[i]..offsets[i + 1]];
        let mut tape: Vec<(Tensor, Cache)> = Vec::new();
        for (i, layer) in m.layers().iter().enumerate() {
            let input = tape.last().map_or(x, |(y, _)| y);
            tape.push(layer.forward(p(i), input, mode > 0));
        }
        let logits = tape.last().map_or(x, |(y, _)| y);
        if mode == 0 {
            return (bits(logits.as_slice()), vec![], None);
        }
        let (loss, mut g) = crate::loss::softmax_cross_entropy(logits, t);
        let mut grads = vec![0.0; m.param_count()];
        for (i, layer) in m.layers().iter().enumerate().rev() {
            let input = if i == 0 { x } else { &tape[i - 1].0 };
            let (y, cache) = &tape[i];
            let gp = &mut grads[offsets[i]..offsets[i + 1]];
            let wanted = i > 0 || mode == 2;
            match layer.backward(p(i), input, y, cache, g.clone(), gp, wanted) {
                Some(gx) => g = gx,
                None => assert_eq!(i, 0),
            }
        }
        let gx = (mode == 2).then(|| bits(g.as_slice()));
        (vec![loss.to_bits()], bits(&grads), gx)
    }

    /// One thread runs every architecture, alternating, through inference
    /// and both kinds of training at every row count of the schedule, on
    /// one workspace filled with NaN before each call. Every logit, loss,
    /// parameter gradient and input gradient equals the allocating oracle
    /// and a cold workspace bit for bit: no buffer is read before it is
    /// written, and no slot that another architecture filled is misread.
    #[test]
    fn workspace_reuse_is_bitwise_invisible() {
        let models = models();
        let mut warm = Workspace::default();
        let mut calls = 0;
        for rows in ROWS {
            for mode in 0..3 {
                for (name, m, batch) in &models {
                    let (x, t) = batch(rows);
                    let want = oracle(m, &x, &t, mode);
                    warm.poison();
                    let got = run(&mut warm, m, &x, &t, mode);
                    let cold = run(&mut Workspace::default(), m, &x, &t, mode);
                    let what = format!("{name}, {rows} rows, mode {mode}");
                    assert_eq!(got, want, "reused workspace, {what}");
                    assert_eq!(cold, want, "cold workspace, {what}");
                    calls += 1;
                }
            }
        }
        assert_eq!(calls, ROWS.len() * 3 * 4);
    }

    /// After one pass of the same schedule through this thread's
    /// workspace, a second pass grows no buffer: every architecture and
    /// row count fits in the capacity the first pass left.
    #[test]
    fn workspace_reaches_steady_state() {
        let models = models();
        install(Workspace::default());
        let schedule = |pass: usize| {
            for rows in ROWS {
                for mode in 0..3 {
                    for (name, m, batch) in &models {
                        let (x, t) = batch(rows);
                        let before = grows();
                        with_workspace(|ws| run(ws, m, &x, &t, mode));
                        if pass > 0 {
                            let what = format!("{name}, {rows} rows, mode {mode}");
                            assert_eq!(grows(), before, "pass {pass} grew a buffer: {what}");
                        }
                    }
                }
            }
        };
        let cold = grows();
        schedule(0);
        assert!(grows() > cold, "the first pass grows the cold workspace");
        schedule(1);
        schedule(2);
    }
}
