//! LSTM layer with full backpropagation through time.
//!
//! The paper's Shakespeare model is a *stacked* LSTM; stacking here is simply
//! several [`Lstm`] layers in a [`crate::Sequential`], each consuming the
//! `[B, T, H]` sequence produced by the previous one.
//!
//! **Buffers.** The output and the input gradient are the caller's (see
//! [`crate::layer`]). The forward pass records every step's activations
//! in [`Cache`] float buffers 0–2 (gates, cells, hidden states, each
//! `[T, B, ·]`), and both passes run their products in scratch buffers
//! there, all kept from call to call. Every product is still computed
//! into a buffer of its own and then added, so each chain keeps its
//! association; the zero initial state and the zero carries are zeroed
//! buffers where fresh zero tensors stood.

use crate::activations::sigmoid;
use crate::gemm::gemm;
use crate::init;
use crate::layer::{Cache, Layer, LayerInit};
use crate::tensor::Tensor;
use crate::workspace::{fit, zeroed};
use rand::Rng;

/// A single LSTM layer mapping `[B, T, in]` to the full hidden sequence
/// `[B, T, hidden]`. Initial hidden and cell states are zero.
///
/// Parameters: `w_ih [in, 4H]`, `w_hh [H, 4H]`, `bias [4H]`. Gate packing
/// order inside the `4·hidden` axis is `i, f, g, o` (input, forget,
/// candidate, output).
pub(crate) struct Lstm {
    in_dim: usize,
    hidden: usize,
}

impl Lstm {
    /// An `in_dim → hidden` LSTM (architecture only).
    pub(crate) fn new(in_dim: usize, hidden: usize) -> Self {
        Self { in_dim, hidden }
    }

    /// Xavier-initialized LSTM with the forget-gate bias set to 1 (the
    /// standard trick to ease gradient flow early in training).
    pub(crate) fn init(in_dim: usize, hidden: usize, rng: &mut impl Rng) -> LayerInit {
        let w_ih = init::xavier_uniform(&[in_dim, 4 * hidden], in_dim, hidden, rng);
        let w_hh = init::xavier_uniform(&[hidden, 4 * hidden], hidden, hidden, rng);
        let mut bias = Tensor::zeros(&[4 * hidden]);
        for v in &mut bias.as_mut_slice()[hidden..2 * hidden] {
            *v = 1.0;
        }
        LayerInit::new(Self::new(in_dim, hidden), &[w_ih, w_hh, bias])
    }

    /// `p` split into `(w_ih, w_hh, bias)`.
    fn split<'p>(&self, p: &'p [f32]) -> (&'p [f32], &'p [f32], &'p [f32]) {
        let four_h = 4 * self.hidden;
        let (w_ih, rest) = p.split_at(self.in_dim * four_h);
        let (w_hh, bias) = rest.split_at(self.hidden * four_h);
        (w_ih, w_hh, bias)
    }

    fn dims(&self, x: &Tensor) -> (usize, usize) {
        assert_eq!(x.rank(), 3, "Lstm expects [B, T, in]");
        assert_eq!(x.shape()[2], self.in_dim, "Lstm input width mismatch");
        (x.shape()[0], x.shape()[1])
    }
}

/// Copy timestep `t` of `[B, T, D]` data `x` into `[B, D]` rows of `out`.
fn step_slice(x: &[f32], (b, tt): (usize, usize), t: usize, d: usize, out: &mut Vec<f32>) {
    let out = fit(out, b * d);
    for (bi, row) in out.chunks_exact_mut(d).enumerate() {
        let base = (bi * tt + t) * d;
        row.copy_from_slice(&x[base..base + d]);
    }
}

/// `op(A)·op(B)` (see [`gemm`]) into `out`, resized to `[m, n]`.
#[allow(clippy::too_many_arguments)]
fn product(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    ta: bool,
    b: &[f32],
    tb: bool,
    out: &mut Vec<f32>,
) {
    gemm(m, n, k, a, ta, b, tb, fit(out, m * n));
}

/// `acc += v`, elementwise.
fn add_into(acc: &mut [f32], v: &[f32]) {
    for (a, &x) in acc.iter_mut().zip(v) {
        *a += x;
    }
}

impl Layer for Lstm {
    fn name(&self) -> &'static str {
        "Lstm"
    }

    fn param_count(&self) -> usize {
        (self.in_dim + self.hidden + 1) * 4 * self.hidden
    }

    fn forward_into(
        &self,
        p: &[f32],
        x: Option<&Tensor>,
        y: &mut Tensor,
        cache: &mut Cache,
        _: bool,
    ) {
        let x = x.expect("Lstm reads its input");
        let (b, t) = self.dims(x);
        let (h, d) = (self.hidden, self.in_dim);
        let (w_ih, w_hh, bias) = self.split(p);
        let [gates, cells, hiddens, x_t, zh, zero] = cache.floats.first();
        let gates = fit(gates, t * b * 4 * h);
        let cells = fit(cells, t * b * h);
        let hiddens = fit(hiddens, t * b * h);
        // The zero initial state: the first step's h_prev.
        let zero: &[f32] = zeroed(zero, b * h);
        let out = y.resize([b, t, h]);
        for step in 0..t {
            step_slice(x.as_slice(), (b, t), step, d, x_t);
            let (h_done, h_rest) = hiddens.split_at_mut(step * b * h);
            let h_prev: &[f32] = if step == 0 {
                zero
            } else {
                &h_done[(step - 1) * b * h..]
            };
            let z = &mut gates[step * b * 4 * h..(step + 1) * b * 4 * h];
            gemm(b, 4 * h, d, x_t, false, w_ih, false, z);
            product(b, 4 * h, h, h_prev, false, w_hh, false, zh);
            add_into(z, zh);
            for row in z.chunks_exact_mut(4 * h) {
                for (o, &bv) in row.iter_mut().zip(bias) {
                    *o += bv;
                }
            }
            let (c_done, c_rest) = cells.split_at_mut(step * b * h);
            let (h_t, c_t) = (&mut h_rest[..b * h], &mut c_rest[..b * h]);
            for bi in 0..b {
                let grow = &mut z[bi * 4 * h..(bi + 1) * 4 * h];
                for j in 0..h {
                    let i_g = sigmoid(grow[j]);
                    let f_g = sigmoid(grow[h + j]);
                    let g_g = grow[2 * h + j].tanh();
                    let o_g = sigmoid(grow[3 * h + j]);
                    grow[j] = i_g;
                    grow[h + j] = f_g;
                    grow[2 * h + j] = g_g;
                    grow[3 * h + j] = o_g;
                    let c_prev = if step == 0 {
                        0.0
                    } else {
                        c_done[(step - 1) * b * h + bi * h + j]
                    };
                    let c = f_g * c_prev + i_g * g_g;
                    c_t[bi * h + j] = c;
                    h_t[bi * h + j] = o_g * c.tanh();
                }
            }
            for (bi, row) in h_t.chunks_exact(h).enumerate() {
                let base = (bi * t + step) * h;
                out[base..base + h].copy_from_slice(row);
            }
        }
    }

    fn backward_into(
        &self,
        p: &[f32],
        x: &Tensor,
        _: &Tensor,
        cache: &mut Cache,
        dy: &mut Tensor,
        dx: Option<&mut Tensor>,
        grad_p: &mut [f32],
    ) {
        let (b, t) = self.dims(x);
        let (h, d) = (self.hidden, self.in_dim);
        let (w_ih, w_hh, _) = self.split(p);
        let [gates, cells, hiddens, x_t, _, _, dh, dh_next, dc_next, dc_prev, dz, prod, dx_t] =
            cache.floats.first();
        assert_eq!(
            gates.len(),
            t * b * 4 * h,
            "Lstm: backward needs its forward pass"
        );
        let (grad_w_ih, rest) = grad_p.split_at_mut(d * 4 * h);
        let (grad_w_hh, grad_bias) = rest.split_at_mut(h * 4 * h);
        let mut grad_x = dx.map(|dx| dx.resize_zeroed(x.shape()));
        // The zero carries into the last step.
        zeroed(dh_next, b * h);
        zeroed(dc_next, b * h);
        fit(dc_prev, b * h);
        let dz = fit(dz, b * 4 * h);
        for step in (0..t).rev() {
            let gates = &gates[step * b * 4 * h..(step + 1) * b * 4 * h];
            let c_t = &cells[step * b * h..(step + 1) * b * h];
            // dL/dh_t = upstream grad at this step + recurrent carry
            step_slice(dy.as_slice(), (b, t), step, h, dh);
            add_into(dh, dh_next);
            // Raw-gate gradients dz [B, 4H]
            for bi in 0..b {
                let g = &gates[bi * 4 * h..(bi + 1) * 4 * h];
                for j in 0..h {
                    let (i_g, f_g, g_g, o_g) = (g[j], g[h + j], g[2 * h + j], g[3 * h + j]);
                    let c = c_t[bi * h + j];
                    let tc = c.tanh();
                    let dh_v = dh[bi * h + j];
                    let mut dc = dc_next[bi * h + j] + dh_v * o_g * (1.0 - tc * tc);
                    let c_prev = if step == 0 {
                        0.0
                    } else {
                        cells[(step - 1) * b * h + bi * h + j]
                    };
                    let d_o = dh_v * tc;
                    let d_i = dc * g_g;
                    let d_g = dc * i_g;
                    let d_f = dc * c_prev;
                    dc *= f_g;
                    let row = &mut dz[bi * 4 * h..(bi + 1) * 4 * h];
                    row[j] = d_i * i_g * (1.0 - i_g);
                    row[h + j] = d_f * f_g * (1.0 - f_g);
                    row[2 * h + j] = d_g * (1.0 - g_g * g_g);
                    row[3 * h + j] = d_o * o_g * (1.0 - o_g);
                    dc_prev[bi * h + j] = dc;
                }
            }
            std::mem::swap(dc_next, dc_prev);
            // Parameter gradients
            step_slice(x.as_slice(), (b, t), step, d, x_t);
            product(d, 4 * h, b, x_t, true, dz, false, prod);
            add_into(grad_w_ih, prod);
            if step > 0 {
                let h_prev = &hiddens[(step - 1) * b * h..step * b * h];
                product(h, 4 * h, b, h_prev, true, dz, false, prod);
                add_into(grad_w_hh, prod);
            }
            // Σ_rows dz from 0.0, then added into the bias gradient.
            let sum = zeroed(prod, 4 * h);
            for row in dz.chunks_exact(4 * h) {
                add_into(sum, row);
            }
            add_into(grad_bias, sum);
            // Input and recurrent gradients
            if let Some(grad_x) = grad_x.as_deref_mut() {
                product(b, d, 4 * h, dz, false, w_ih, true, dx_t);
                for (bi, row) in dx_t.chunks_exact(d).enumerate() {
                    let base = (bi * t + step) * d;
                    add_into(&mut grad_x[base..base + d], row);
                }
            }
            product(b, h, 4 * h, dz, false, w_hh, true, dh_next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Allocating;
    use crate::rng::seeded;

    #[test]
    fn forward_shape_and_bounds() {
        let mut rng = seeded(0);
        let lstm = Lstm::init(3, 5, &mut rng);
        let x = Tensor::from_fn(&[2, 7, 3], |i| ((i % 13) as f32 - 6.0) * 0.2);
        let (y, _) = lstm.layer.forward(&lstm.params, &x, false);
        assert_eq!(y.shape(), &[2, 7, 5]);
        // h = o * tanh(c) with o in (0,1) and tanh in (-1,1)
        assert!(y.as_slice().iter().all(|v| v.abs() < 1.0));
    }

    #[test]
    fn zero_input_zero_weights_gives_zero_output() {
        let lstm = Lstm::new(2, 2);
        let x = Tensor::zeros(&[1, 4, 2]);
        let (y, _) = lstm.forward(&[0.0; 40], &x, false);
        // all gates sigmoid(0)=0.5, g=tanh(0)=0, so c=0, h=0
        assert!(y.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn forget_bias_initialized_to_one() {
        let mut rng = seeded(1);
        let lstm = Lstm::init(4, 6, &mut rng);
        let b = &lstm.params[(4 + 6) * 24..];
        assert!(b[6..12].iter().all(|&v| v == 1.0));
        assert!(b[0..6].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn backward_shapes() {
        let mut rng = seeded(2);
        let lstm = Lstm::init(3, 4, &mut rng);
        let x = Tensor::from_fn(&[2, 5, 3], |i| (i as f32 * 0.01).sin());
        let (y, c) = lstm.layer.forward(&lstm.params, &x, true);
        let g = Tensor::from_fn(y.shape(), |_| 0.1);
        let mut gp = vec![0.0; lstm.params.len()];
        let gx = lstm
            .layer
            .backward(&lstm.params, &x, &y, &c, g, &mut gp, true)
            .unwrap();
        assert_eq!(gx.shape(), &[2, 5, 3]);
        assert_eq!(gp.len(), 3 * 16 + 4 * 16 + 16);
    }

    #[test]
    fn longer_sequence_accumulates_state() {
        // With positive input weights and input, the cell state should grow
        // over time, so late hidden values differ from early ones.
        let mut rng = seeded(3);
        let lstm = Lstm::init(1, 2, &mut rng);
        let x = Tensor::from_fn(&[1, 10, 1], |_| 1.0);
        let (y, _) = lstm.layer.forward(&lstm.params, &x, false);
        let first = &y.as_slice()[0..2];
        let last = &y.as_slice()[18..20];
        assert_ne!(first, last);
    }
}
