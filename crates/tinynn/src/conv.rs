//! 2-D convolution (stride 1, symmetric zero padding), the building block of
//! the FEMNIST CNN.
//!
//! Both passes are expressed as GEMMs over im2col patch matrices, so all the
//! arithmetic runs through the blocked/packed kernel in [`crate::gemm`]:
//!
//! - forward: `out_b[OC, OH·OW] = bias ⊕ W[OC, IC·K·K] · col_b` (the
//!   accumulating GEMM starts each chain at the bias, reproducing the
//!   classic `acc = bias; acc += w·x` loop bit-for-bit),
//! - weight gradient: `gW += g_b · col_bᵀ` (B-transposed variant),
//! - input gradient: `gcol = Wᵀ · g_b` (A-transposed variant) scattered back
//!   with col2im.
//!
//! The im2col matrices are built once in the training forward pass and
//! cached for backward. Batch items are processed serially in ascending
//! order, keeping gradient accumulation deterministic; the parallelism of a
//! training round is one node per worker, above the layer.

use crate::init;
use crate::layer::{Cache, Layer};
use crate::tensor::Tensor;
use rand::Rng;

/// A 2-D convolution layer over `[B, C, H, W]` inputs.
///
/// Weights have shape `[out_ch, in_ch, k, k]`; stride is fixed at 1 and the
/// input is zero-padded by `pad` pixels on every side, so the output spatial
/// size is `H + 2·pad − k + 1`.
pub struct Conv2d {
    weight: Tensor,
    bias: Tensor,
    in_ch: usize,
    out_ch: usize,
    k: usize,
    pad: usize,
}

impl Conv2d {
    /// Construct with explicit weights (mainly for tests).
    pub fn new(weight: Tensor, bias: Tensor, pad: usize) -> Self {
        assert_eq!(weight.rank(), 4, "Conv2d weight must be [OC, IC, K, K]");
        let out_ch = weight.shape()[0];
        let in_ch = weight.shape()[1];
        let k = weight.shape()[2];
        assert_eq!(weight.shape()[3], k, "Conv2d kernels must be square");
        assert_eq!(bias.shape(), &[out_ch]);
        Self {
            weight,
            bias,
            in_ch,
            out_ch,
            k,
            pad,
        }
    }

    /// He-initialized convolution (the default in front of ReLU).
    pub fn he(in_ch: usize, out_ch: usize, k: usize, pad: usize, rng: &mut impl Rng) -> Self {
        let fan_in = in_ch * k * k;
        Self::new(
            init::he_normal(&[out_ch, in_ch, k, k], fan_in, rng),
            Tensor::zeros(&[out_ch]),
            pad,
        )
    }

    /// Output spatial size for an input spatial size.
    pub fn out_size(&self, h: usize) -> usize {
        h + 2 * self.pad + 1 - self.k
    }

    fn check_input(&self, x: &Tensor) -> (usize, usize, usize) {
        assert_eq!(x.rank(), 4, "Conv2d expects [B, C, H, W]");
        let (b, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        assert_eq!(c, self.in_ch, "Conv2d channel mismatch");
        assert!(
            h + 2 * self.pad >= self.k && w + 2 * self.pad >= self.k,
            "Conv2d input smaller than kernel"
        );
        (b, h, w)
    }

    /// Unfold one item into the `[IC·K·K, OH·OW]` patch matrix: row
    /// `(c, ky, kx)` holds the input pixel each output position multiplies
    /// against that kernel tap, with zeros where the tap falls in padding.
    #[allow(clippy::too_many_arguments)]
    fn im2col(&self, xb: &[f32], h: usize, w: usize, oh: usize, ow: usize, col: &mut [f32]) {
        let (ic, k, pad) = (self.in_ch, self.k, self.pad);
        debug_assert_eq!(col.len(), ic * k * k * oh * ow);
        col.fill(0.0);
        for c in 0..ic {
            let xplane = &xb[c * h * w..(c + 1) * h * w];
            for ky in 0..k {
                for kx in 0..k {
                    let row = ((c * k + ky) * k + kx) * oh * ow;
                    for oy in 0..oh {
                        let iy = oy + ky;
                        if iy < pad || iy >= h + pad {
                            continue;
                        }
                        let iy = iy - pad;
                        for ox in 0..ow {
                            let ix = ox + kx;
                            if ix < pad || ix >= w + pad {
                                continue;
                            }
                            col[row + oy * ow + ox] = xplane[iy * w + (ix - pad)];
                        }
                    }
                }
            }
        }
    }

    /// Scatter a `[IC·K·K, OH·OW]` patch-gradient matrix back onto the input
    /// plane (the transpose of [`Self::im2col`]): padding taps are dropped,
    /// overlapping taps accumulate.
    #[allow(clippy::too_many_arguments)]
    fn col2im(&self, gcol: &[f32], h: usize, w: usize, oh: usize, ow: usize, gx: &mut [f32]) {
        let (ic, k, pad) = (self.in_ch, self.k, self.pad);
        debug_assert_eq!(gcol.len(), ic * k * k * oh * ow);
        for c in 0..ic {
            let gplane = &mut gx[c * h * w..(c + 1) * h * w];
            for ky in 0..k {
                for kx in 0..k {
                    let row = ((c * k + ky) * k + kx) * oh * ow;
                    for oy in 0..oh {
                        let iy = oy + ky;
                        if iy < pad || iy >= h + pad {
                            continue;
                        }
                        let iy = iy - pad;
                        for ox in 0..ow {
                            let ix = ox + kx;
                            if ix < pad || ix >= w + pad {
                                continue;
                            }
                            gplane[iy * w + (ix - pad)] += gcol[row + oy * ow + ox];
                        }
                    }
                }
            }
        }
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "Conv2d"
    }

    fn forward(&self, x: &Tensor, train: bool) -> (Tensor, Cache) {
        let (b, h, w) = self.check_input(x);
        let (oh, ow) = (self.out_size(h), self.out_size(w));
        let (ic, oc, k) = (self.in_ch, self.out_ch, self.k);
        let (ickk, ohow) = (ic * k * k, oh * ow);
        let xs = x.as_slice();
        let ws = self.weight.as_slice();
        let bs = self.bias.as_slice();
        let mut out = vec![0.0f32; b * oc * ohow];
        // In training mode the patch matrices are kept for backward; in
        // inference mode one scratch matrix is reused across items.
        let mut cols = vec![0.0f32; if train { b * ickk * ohow } else { ickk * ohow }];
        for bi in 0..b {
            let xb = &xs[bi * ic * h * w..(bi + 1) * ic * h * w];
            let col = if train {
                &mut cols[bi * ickk * ohow..(bi + 1) * ickk * ohow]
            } else {
                &mut cols[..]
            };
            self.im2col(xb, h, w, oh, ow, col);
            let ob = &mut out[bi * oc * ohow..(bi + 1) * oc * ohow];
            for (o, row) in ob.chunks_mut(ohow).enumerate() {
                row.fill(bs[o]);
            }
            crate::gemm::gemm_accum(oc, ohow, ickk, ws, false, col, false, ob);
        }
        let cache = if train {
            Cache::new(cols)
        } else {
            Cache::none()
        };
        (Tensor::from_vec(vec![b, oc, oh, ow], out), cache)
    }

    fn backward(&self, x: &Tensor, cache: &Cache, grad_out: &Tensor) -> (Tensor, Vec<Tensor>) {
        let (b, h, w) = self.check_input(x);
        let (oh, ow) = (self.out_size(h), self.out_size(w));
        let (ic, oc, k) = (self.in_ch, self.out_ch, self.k);
        let (ickk, ohow) = (ic * k * k, oh * ow);
        let xs = x.as_slice();
        let ws = self.weight.as_slice();
        let gs = grad_out.as_slice();
        let cached_cols = cache.try_get::<Vec<f32>>();
        let mut scratch_col = match cached_cols {
            Some(_) => Vec::new(),
            None => vec![0.0f32; ickk * ohow],
        };
        let mut grad_w = vec![0.0f32; oc * ickk];
        let mut grad_b = vec![0.0f32; oc];
        let mut grad_x = vec![0.0f32; b * ic * h * w];
        let mut gcol = vec![0.0f32; ickk * ohow];
        // Items accumulate in ascending batch order: fixed association,
        // independent of any parallelism in the callers above.
        for bi in 0..b {
            let gb = &gs[bi * oc * ohow..(bi + 1) * oc * ohow];
            for (o, grow) in gb.chunks(ohow).enumerate() {
                for &g in grow {
                    grad_b[o] += g;
                }
            }
            let col: &[f32] = match cached_cols {
                Some(cols) => &cols[bi * ickk * ohow..(bi + 1) * ickk * ohow],
                None => {
                    let xb = &xs[bi * ic * h * w..(bi + 1) * ic * h * w];
                    self.im2col(xb, h, w, oh, ow, &mut scratch_col);
                    &scratch_col
                }
            };
            // gW[OC, IC·K·K] += g_b · col_bᵀ
            crate::gemm::gemm_accum(oc, ickk, ohow, gb, false, col, true, &mut grad_w);
            // gcol[IC·K·K, OH·OW] = Wᵀ · g_b, scattered back onto the input
            crate::gemm::gemm(ickk, ohow, oc, ws, true, gb, false, &mut gcol);
            self.col2im(
                &gcol,
                h,
                w,
                oh,
                ow,
                &mut grad_x[bi * ic * h * w..(bi + 1) * ic * h * w],
            );
        }
        (
            Tensor::from_vec(x.shape().to_vec(), grad_x),
            vec![
                Tensor::from_vec(self.weight.shape().to_vec(), grad_w),
                Tensor::from_vec(vec![oc], grad_b),
            ],
        )
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weight, &mut self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 1×1 kernel reduces to a per-pixel scale + bias.
    #[test]
    fn identity_kernel_1x1() {
        let w = Tensor::from_vec(vec![1, 1, 1, 1], vec![2.0]);
        let b = Tensor::from_vec(vec![1], vec![0.5]);
        let conv = Conv2d::new(w, b, 0);
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1., 2., 3., 4.]);
        let (y, _) = conv.forward(&x, false);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[2.5, 4.5, 6.5, 8.5]);
    }

    /// A 3×3 all-ones kernel on a padded input computes box sums.
    #[test]
    fn box_sum_kernel() {
        let w = Tensor::filled(&[1, 1, 3, 3], 1.0);
        let b = Tensor::zeros(&[1]);
        let conv = Conv2d::new(w, b, 1);
        let x = Tensor::filled(&[1, 1, 3, 3], 1.0);
        let (y, _) = conv.forward(&x, false);
        assert_eq!(y.shape(), &[1, 1, 3, 3]);
        // center pixel sees all 9 ones; corners see 4.
        assert_eq!(y.at_idx(&[0, 0, 1, 1]), 9.0);
        assert_eq!(y.at_idx(&[0, 0, 0, 0]), 4.0);
    }

    impl Tensor {
        /// test helper: index a rank-4 tensor
        fn at_idx(&self, idx: &[usize; 4]) -> f32 {
            let s = self.shape();
            self.as_slice()[((idx[0] * s[1] + idx[1]) * s[2] + idx[2]) * s[3] + idx[3]]
        }
    }

    #[test]
    fn output_shape_no_pad() {
        let mut rng = crate::rng::seeded(0);
        let conv = Conv2d::he(2, 4, 3, 0, &mut rng);
        let x = Tensor::zeros(&[2, 2, 8, 8]);
        let (y, _) = conv.forward(&x, false);
        assert_eq!(y.shape(), &[2, 4, 6, 6]);
    }

    #[test]
    fn backward_shapes() {
        let mut rng = crate::rng::seeded(1);
        let conv = Conv2d::he(2, 3, 3, 1, &mut rng);
        let x = Tensor::from_fn(&[2, 2, 5, 5], |i| (i % 11) as f32 * 0.1);
        let (y, c) = conv.forward(&x, true);
        let g = Tensor::filled(y.shape(), 1.0);
        let (gx, gp) = conv.backward(&x, &c, &g);
        assert_eq!(gx.shape(), x.shape());
        assert_eq!(gp[0].shape(), &[3, 2, 3, 3]);
        assert_eq!(gp[1].shape(), &[3]);
        // bias gradient = number of output pixels per channel per batch
        assert_eq!(gp[1].as_slice()[0], (2 * 5 * 5) as f32);
    }

    /// backward must work (by recomputing im2col) even when forward ran in
    /// inference mode and cached nothing.
    #[test]
    fn backward_without_cached_columns() {
        let mut rng = crate::rng::seeded(2);
        let conv = Conv2d::he(1, 2, 3, 1, &mut rng);
        let x = Tensor::from_fn(&[1, 1, 4, 4], |i| (i % 5) as f32 * 0.2);
        let (y, cache_train) = conv.forward(&x, true);
        let g = Tensor::filled(y.shape(), 0.5);
        let (gx_cached, gp_cached) = conv.backward(&x, &cache_train, &g);
        let (gx_fresh, gp_fresh) = conv.backward(&x, &Cache::none(), &g);
        assert_eq!(gx_cached.as_slice(), gx_fresh.as_slice());
        assert_eq!(gp_cached[0].as_slice(), gp_fresh[0].as_slice());
        assert_eq!(gp_cached[1].as_slice(), gp_fresh[1].as_slice());
    }
}
