//! LSTM layer with full backpropagation through time.
//!
//! The paper's Shakespeare model is a *stacked* LSTM; stacking here is simply
//! several [`Lstm`] layers in a [`crate::Sequential`], each consuming the
//! `[B, T, H]` sequence produced by the previous one.

use crate::activations::sigmoid;
use crate::gemm::gemm;
use crate::init;
use crate::layer::{Cache, Layer, LayerInit};
use crate::tensor::Tensor;
use rand::Rng;

/// A single LSTM layer mapping `[B, T, in]` to the full hidden sequence
/// `[B, T, hidden]`. Initial hidden and cell states are zero.
///
/// Parameters: `w_ih [in, 4H]`, `w_hh [H, 4H]`, `bias [4H]`. Gate packing
/// order inside the `4·hidden` axis is `i, f, g, o` (input, forget,
/// candidate, output).
pub struct Lstm {
    in_dim: usize,
    hidden: usize,
}

/// Per-timestep activations recorded by the forward pass.
struct LstmCache {
    /// Post-activation gates `[B, 4H]`, packed `i f g o`, one per step.
    gates: Vec<Tensor>,
    /// Cell states `c_t` `[B, H]`, one per step.
    cells: Vec<Tensor>,
    /// Hidden states `h_t` `[B, H]`, one per step.
    hiddens: Vec<Tensor>,
}

impl Lstm {
    /// An `in_dim → hidden` LSTM (architecture only).
    pub fn new(in_dim: usize, hidden: usize) -> Self {
        Self { in_dim, hidden }
    }

    /// Xavier-initialized LSTM with the forget-gate bias set to 1 (the
    /// standard trick to ease gradient flow early in training).
    pub fn init(in_dim: usize, hidden: usize, rng: &mut impl Rng) -> LayerInit {
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

    /// Hidden state width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Input feature width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    fn dims(&self, x: &Tensor) -> (usize, usize) {
        assert_eq!(x.rank(), 3, "Lstm expects [B, T, in]");
        assert_eq!(x.shape()[2], self.in_dim, "Lstm input width mismatch");
        (x.shape()[0], x.shape()[1])
    }

    /// Slice timestep `t` out of `[B, T, D]` as a `[B, D]` tensor.
    fn step_slice(x: &Tensor, t: usize, d: usize) -> Tensor {
        let (b, tt) = (x.shape()[0], x.shape()[1]);
        let mut out = Vec::with_capacity(b * d);
        for bi in 0..b {
            let base = (bi * tt + t) * d;
            out.extend_from_slice(&x.as_slice()[base..base + d]);
        }
        Tensor::from_vec(vec![b, d], out)
    }
}

/// `op(A)·op(B)` (see [`gemm`]) into a fresh `[m, n]` tensor.
fn product(m: usize, n: usize, k: usize, a: &[f32], ta: bool, b: &[f32], tb: bool) -> Tensor {
    let mut out = vec![0.0f32; m * n];
    gemm(m, n, k, a, ta, b, tb, &mut out);
    Tensor::from_vec(vec![m, n], out)
}

/// `acc += v`, elementwise.
fn add_into(acc: &mut [f32], v: &Tensor) {
    for (a, &x) in acc.iter_mut().zip(v.as_slice()) {
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

    fn forward(&self, p: &[f32], x: &Tensor, _train: bool) -> (Tensor, Cache) {
        let (b, t) = self.dims(x);
        let h = self.hidden;
        let (w_ih, w_hh, bias) = self.split(p);
        let mut cache = LstmCache {
            gates: Vec::with_capacity(t),
            cells: Vec::with_capacity(t),
            hiddens: Vec::with_capacity(t),
        };
        let mut h_prev = Tensor::zeros(&[b, h]);
        let mut c_prev = Tensor::zeros(&[b, h]);
        let mut out = vec![0.0f32; b * t * h];
        for step in 0..t {
            let x_t = Self::step_slice(x, step, self.in_dim);
            let mut z = product(b, 4 * h, self.in_dim, x_t.as_slice(), false, w_ih, false);
            z.add_assign(&product(b, 4 * h, h, h_prev.as_slice(), false, w_hh, false));
            for row in z.as_mut_slice().chunks_exact_mut(4 * h) {
                for (o, &bv) in row.iter_mut().zip(bias) {
                    *o += bv;
                }
            }
            let mut gates = z;
            let mut c_t = Tensor::zeros(&[b, h]);
            let mut h_t = Tensor::zeros(&[b, h]);
            for bi in 0..b {
                let grow = gates.row_mut(bi);
                for j in 0..h {
                    let i_g = sigmoid(grow[j]);
                    let f_g = sigmoid(grow[h + j]);
                    let g_g = grow[2 * h + j].tanh();
                    let o_g = sigmoid(grow[3 * h + j]);
                    grow[j] = i_g;
                    grow[h + j] = f_g;
                    grow[2 * h + j] = g_g;
                    grow[3 * h + j] = o_g;
                    let c = f_g * c_prev.at2(bi, j) + i_g * g_g;
                    c_t.row_mut(bi)[j] = c;
                    h_t.row_mut(bi)[j] = o_g * c.tanh();
                }
            }
            for bi in 0..b {
                let base = (bi * t + step) * h;
                out[base..base + h].copy_from_slice(h_t.row(bi));
            }
            cache.gates.push(gates);
            cache.cells.push(c_t.clone());
            cache.hiddens.push(h_t.clone());
            h_prev = h_t;
            c_prev = c_t;
        }
        (Tensor::from_vec(vec![b, t, h], out), Cache::new(cache))
    }

    fn backward(
        &self,
        p: &[f32],
        x: &Tensor,
        cache: &Cache,
        grad_out: Tensor,
        grad_p: &mut [f32],
        input_grad: bool,
    ) -> Option<Tensor> {
        let (b, t) = self.dims(x);
        let (h, d) = (self.hidden, self.in_dim);
        let (w_ih, w_hh, _) = self.split(p);
        let cache = cache.get::<LstmCache>();
        let (grad_w_ih, rest) = grad_p.split_at_mut(d * 4 * h);
        let (grad_w_hh, grad_bias) = rest.split_at_mut(h * 4 * h);
        let mut grad_x = vec![0.0f32; b * t * self.in_dim];
        let mut dh_next = Tensor::zeros(&[b, h]);
        let mut dc_next = Tensor::zeros(&[b, h]);
        for step in (0..t).rev() {
            let gates = &cache.gates[step];
            let c_t = &cache.cells[step];
            // dL/dh_t = upstream grad at this step + recurrent carry
            let mut dh = Self::step_slice(&grad_out, step, h);
            dh.add_assign(&dh_next);
            // Raw-gate gradients dz [B, 4H]
            let mut dz = Tensor::zeros(&[b, 4 * h]);
            let mut dc_prev = Tensor::zeros(&[b, h]);
            for bi in 0..b {
                let g = gates.row(bi);
                for j in 0..h {
                    let (i_g, f_g, g_g, o_g) = (g[j], g[h + j], g[2 * h + j], g[3 * h + j]);
                    let c = c_t.at2(bi, j);
                    let tc = c.tanh();
                    let dh_v = dh.at2(bi, j);
                    let mut dc = dc_next.at2(bi, j) + dh_v * o_g * (1.0 - tc * tc);
                    let c_prev = if step == 0 {
                        0.0
                    } else {
                        cache.cells[step - 1].at2(bi, j)
                    };
                    let d_o = dh_v * tc;
                    let d_i = dc * g_g;
                    let d_g = dc * i_g;
                    let d_f = dc * c_prev;
                    dc *= f_g;
                    let row = dz.row_mut(bi);
                    row[j] = d_i * i_g * (1.0 - i_g);
                    row[h + j] = d_f * f_g * (1.0 - f_g);
                    row[2 * h + j] = d_g * (1.0 - g_g * g_g);
                    row[3 * h + j] = d_o * o_g * (1.0 - o_g);
                    dc_prev.row_mut(bi)[j] = dc;
                }
            }
            dc_next = dc_prev;
            // Parameter gradients
            let x_t = Self::step_slice(x, step, d);
            add_into(
                grad_w_ih,
                &product(d, 4 * h, b, x_t.as_slice(), true, dz.as_slice(), false),
            );
            if step > 0 {
                let h_prev = cache.hiddens[step - 1].as_slice();
                add_into(
                    grad_w_hh,
                    &product(h, 4 * h, b, h_prev, true, dz.as_slice(), false),
                );
            }
            add_into(grad_bias, &dz.sum_rows());
            // Input and recurrent gradients
            if input_grad {
                let dx_t = product(b, d, 4 * h, dz.as_slice(), false, w_ih, true);
                for bi in 0..b {
                    let base = (bi * t + step) * self.in_dim;
                    for (gx, &v) in grad_x[base..base + self.in_dim]
                        .iter_mut()
                        .zip(dx_t.row(bi))
                    {
                        *gx += v;
                    }
                }
            }
            dh_next = product(b, h, 4 * h, dz.as_slice(), false, w_hh, true);
        }
        input_grad.then(|| Tensor::from_vec(x.shape().to_vec(), grad_x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let g = Tensor::filled(y.shape(), 0.1);
        let mut gp = vec![0.0; lstm.params.len()];
        let gx = lstm
            .layer
            .backward(&lstm.params, &x, &c, g, &mut gp, true)
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
        let x = Tensor::filled(&[1, 10, 1], 1.0);
        let (y, _) = lstm.layer.forward(&lstm.params, &x, false);
        let first = &y.as_slice()[0..2];
        let last = &y.as_slice()[18..20];
        assert_ne!(first, last);
    }
}
