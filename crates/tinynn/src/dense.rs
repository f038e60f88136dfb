//! Fully-connected (affine) layer.

use crate::gemm::{gemm, gemm_accum};
use crate::init;
use crate::layer::{Cache, Layer, LayerInit};
use crate::tensor::Tensor;
use rand::Rng;

/// A fully-connected layer computing `y = x · W + b` for `x: [B, in]`,
/// `W: [in, out]`, `b: [out]`. Parameters: `W` then `b`.
///
/// When the input has rank 3 (`[B, T, in]`, e.g. per-timestep logits of a
/// language model) it is treated as `[B·T, in]`. Every product runs on the
/// storage of the input and the gradient as they are.
pub struct Dense {
    in_dim: usize,
    out_dim: usize,
}

impl Dense {
    /// An `in_dim → out_dim` layer (architecture only).
    pub fn new(in_dim: usize, out_dim: usize) -> Self {
        Self { in_dim, out_dim }
    }

    /// Xavier-uniform initialized layer (good default for output layers).
    pub fn xavier(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> LayerInit {
        LayerInit::new(
            Self::new(in_dim, out_dim),
            &[
                init::xavier_uniform(&[in_dim, out_dim], in_dim, out_dim, rng),
                Tensor::zeros(&[out_dim]),
            ],
        )
    }

    /// He-normal initialized layer (good default before ReLU).
    pub fn he(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> LayerInit {
        LayerInit::new(
            Self::new(in_dim, out_dim),
            &[
                init::he_normal(&[in_dim, out_dim], in_dim, rng),
                Tensor::zeros(&[out_dim]),
            ],
        )
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Rows of `x` viewed as `[rows, in_dim]`.
    ///
    /// The *last* axis must equal `in_dim`: checking only divisibility of
    /// the total length silently accepted inputs like `[2, 8]` into a
    /// 4-wide layer, reinterpreting them as `[4, 4]`.
    fn rows(&self, x: &Tensor) -> usize {
        assert_eq!(
            x.shape().last().copied(),
            Some(self.in_dim),
            "Dense: input {:?} must end in in_dim {}",
            x.shape(),
            self.in_dim
        );
        x.len() / self.in_dim
    }
}

impl Layer for Dense {
    fn name(&self) -> &'static str {
        "Dense"
    }

    fn param_count(&self) -> usize {
        self.in_dim * self.out_dim + self.out_dim
    }

    fn forward(&self, p: &[f32], x: &Tensor, _train: bool) -> (Tensor, Cache) {
        let (rows, n) = (self.rows(x), self.out_dim);
        let (w, b) = p.split_at(self.in_dim * n);
        // Each output chain starts at 0.0, adds its products in ascending
        // `k`, and adds the bias last (seeding the chain with the bias
        // would be a different sum).
        let mut y = vec![0.0f32; rows * n];
        gemm_accum(rows, n, self.in_dim, x.as_slice(), false, w, false, &mut y);
        for row in y.chunks_exact_mut(n) {
            for (o, &bv) in row.iter_mut().zip(b) {
                *o += bv;
            }
        }
        // Preserve a leading batch structure: [..., in] -> [..., out]
        let mut out_shape = x.shape().to_vec();
        *out_shape.last_mut().expect("non-scalar input") = n;
        (Tensor::from_vec(out_shape, y), Cache::none())
    }

    fn backward(
        &self,
        p: &[f32],
        x: &Tensor,
        _cache: &Cache,
        grad_out: &Tensor,
        grad_p: &mut [f32],
    ) -> Tensor {
        let (rows, k, n) = (self.rows(x), self.in_dim, self.out_dim);
        let g = grad_out.as_slice();
        assert_eq!(g.len(), rows * n, "Dense: gradient shape mismatch");
        let (gw, gb) = grad_p.split_at_mut(k * n);
        // dL/dW = xᵀ g, dL/db = Σ_rows g, dL/dx = g Wᵀ
        gemm_accum(k, n, rows, x.as_slice(), true, g, false, gw);
        for grow in g.chunks_exact(n) {
            for (o, &v) in gb.iter_mut().zip(grow) {
                *o += v;
            }
        }
        let mut gx = vec![0.0f32; rows * k];
        gemm(rows, k, n, g, false, &p[..k * n], true, &mut gx);
        Tensor::from_vec(x.shape().to_vec(), gx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    fn params(w: &[f32], b: &[f32]) -> Vec<f32> {
        [w, b].concat()
    }

    #[test]
    fn forward_matches_manual_affine() {
        // W = [[1,0],[0,1],[1,1]], b = [0.5, -0.5]
        let p = params(&[1., 0., 0., 1., 1., 1.], &[0.5, -0.5]);
        let layer = Dense::new(3, 2);
        let x = Tensor::from_vec(vec![1, 3], vec![1., 2., 3.]);
        let (y, _) = layer.forward(&p, &x, false);
        assert_eq!(y.shape(), &[1, 2]);
        assert_eq!(y.as_slice(), &[4.5, 4.5]);
    }

    #[test]
    fn forward_rank3_keeps_time_axis() {
        let init = Dense::xavier(4, 3, &mut seeded(0));
        let x = Tensor::from_fn(&[2, 5, 4], |i| i as f32 * 0.01);
        let (y, _) = init.layer.forward(&init.params, &x, false);
        assert_eq!(y.shape(), &[2, 5, 3]);
    }

    #[test]
    fn backward_shapes() {
        let init = Dense::xavier(4, 3, &mut seeded(1));
        let x = Tensor::from_fn(&[2, 4], |i| i as f32 * 0.1);
        let (y, cache) = init.layer.forward(&init.params, &x, true);
        let g = Tensor::filled(y.shape(), 1.0);
        let mut gp = vec![0.0; init.layer.param_count()];
        let gx = init.layer.backward(&init.params, &x, &cache, &g, &mut gp);
        assert_eq!(gx.shape(), x.shape());
        assert_eq!(gp.len(), 4 * 3 + 3);
    }

    #[test]
    #[should_panic(expected = "must end in in_dim")]
    fn rejects_input_whose_last_axis_is_not_in_dim() {
        // [2, 8] has 16 elements — divisible by in_dim=4 — but its feature
        // axis is 8; the old divisibility check silently accepted this.
        let layer = Dense::new(4, 3);
        let x = Tensor::zeros(&[2, 8]);
        let _ = layer.forward(&[0.0; 15], &x, false);
    }

    #[test]
    fn param_count() {
        let init = Dense::xavier(10, 7, &mut seeded(2));
        assert_eq!(init.layer.param_count(), 10 * 7 + 7);
        assert_eq!(init.params.len(), 10 * 7 + 7);
    }

    #[test]
    fn bias_gradient_sums_rows() {
        let layer = Dense::new(2, 2);
        let p = [0.0; 6];
        let x = Tensor::from_vec(vec![3, 2], vec![0.0; 6]);
        let (_, cache) = layer.forward(&p, &x, true);
        let g = Tensor::from_vec(vec![3, 2], vec![1., 2., 3., 4., 5., 6.]);
        let mut gp = [0.0; 6];
        layer.backward(&p, &x, &cache, &g, &mut gp);
        assert_eq!(&gp[4..], &[9., 12.]);
    }

    /// Deterministic values in roughly [-1, 1]; every 5th is +0.0 and every
    /// 7th −0.0, so signed-zero arithmetic is exercised.
    fn values(seed: u64, len: usize) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                match i % 35 {
                    0 | 5 | 10 | 15 | 20 | 25 | 30 => 0.0,
                    7 | 14 | 21 | 28 => -0.0,
                    _ => ((state >> 33) as i32 as f32) / (i32::MAX as f32),
                }
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The tensor-owning formulation the in-place layer replaced: copy the
    /// input into a `[rows, in]` tensor, `matmul`, then the old
    /// `add_row_broadcast` loop; backward as the old `matmul_at`,
    /// `sum_rows` and `matmul_bt` (a zeroed tensor, then `gemm`) on
    /// copies. Returns `(y, gx, gW, gb)`.
    fn oracle(
        w: &Tensor,
        b: &Tensor,
        x: &Tensor,
        g: &Tensor,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
        let (k, n) = (w.shape()[0], w.shape()[1]);
        let rows = x.len() / k;
        let x2 = x.clone().reshape(vec![rows, k]);
        let mut y = x2.matmul(w);
        for row in y.as_mut_slice().chunks_mut(n) {
            for (o, &bv) in row.iter_mut().zip(b.as_slice()) {
                *o += bv;
            }
        }
        let g2 = g.clone().reshape(vec![rows, n]);
        let (xs, gs, ws) = (x2.as_slice(), g2.as_slice(), w.as_slice());
        let mut gx = vec![0.0f32; rows * k];
        gemm(rows, k, n, gs, false, ws, true, &mut gx);
        let mut gw = vec![0.0f32; k * n];
        gemm(k, n, rows, xs, true, gs, false, &mut gw);
        (y.into_vec(), gx, gw, g2.sum_rows().into_vec())
    }

    /// Forward and all three gradients equal the tensor-owning oracle bit
    /// for bit, on rank-2 and rank-3 inputs with ±0.0 in inputs, weights,
    /// biases and gradients.
    #[test]
    fn dense_in_place_matches_tensor_oracle_bitwise() {
        let mut case = 0u64;
        for shape in [
            vec![1usize],
            vec![7],
            vec![4, 3],
            vec![2, 5],
            vec![3, 1],
            vec![70],
        ] {
            for (k, n) in [(1usize, 1usize), (8, 16), (16, 4), (9, 13), (33, 2)] {
                case += 1;
                let rows: usize = shape.iter().product();
                let mut xs = shape.clone();
                xs.push(k);
                let w = Tensor::from_vec(vec![k, n], values(case, k * n));
                let b = Tensor::from_vec(vec![n], values(case + 101, n));
                let x = Tensor::from_vec(xs.clone(), values(case + 7, rows * k));
                let mut gs = shape.clone();
                gs.push(n);
                let g = Tensor::from_vec(gs.clone(), values(case + 13, rows * n));
                let (y, gx, gw, gb) = oracle(&w, &b, &x, &g);

                let layer = Dense::new(k, n);
                let p = params(w.as_slice(), b.as_slice());
                let what = format!("x {xs:?}, {k} -> {n}");
                for train in [false, true] {
                    let (out, _) = layer.forward(&p, &x, train);
                    assert_eq!(out.shape(), &gs[..], "{what}");
                    assert_eq!(bits(out.as_slice()), bits(&y), "forward, {what}");
                }
                let mut gp = vec![0.0; layer.param_count()];
                let dx = layer.backward(&p, &x, &Cache::none(), &g, &mut gp);
                assert_eq!(dx.shape(), x.shape(), "{what}");
                assert_eq!(bits(dx.as_slice()), bits(&gx), "gx, {what}");
                assert_eq!(bits(&gp[..k * n]), bits(&gw), "gW, {what}");
                assert_eq!(bits(&gp[k * n..]), bits(&gb), "gb, {what}");
            }
        }
    }
}
