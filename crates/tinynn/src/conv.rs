//! 2-D convolution (stride 1, symmetric zero padding), the building block of
//! the FEMNIST CNN.
//!
//! **Forward: direct convolution over a zero-padded plane** (Zhang,
//! Franchetti & Low, "High Performance Zero-Memory Overhead Direct
//! Convolutions", ICML 2018). Each image is copied once into `[IC, PH, PW]`
//! planes, `PH = H + 2·pad`, whose border holds stored zeros; `PW` also
//! leaves room for the last, ragged column tile. A register tile of `MR`
//! output channels × `NR` output columns then starts every chain at the
//! bias and adds the `IC·K·K` taps in ascending `(c, ky, kx)` order, a
//! padded tap multiplying a stored `0.0`. That is exactly the chain of
//! `fill(bias)` followed by [`crate::gemm::gemm_accum`] over an im2col patch
//! matrix, so the two are bit-identical; the im2col + GEMM forward survives
//! only as the differential oracle in `mod tests`. Inference and training
//! run the same kernel.
//!
//! **Vector width.** One tile source, two compiles, picked once per process
//! ([`crate::kernel_width`] names it): `tile_plain` for the target's
//! baseline features (SSE2 on x86-64, four lanes) and `tile_avx2` (eight
//! lanes: one register per tile row). Each lane keeps its serial chain, so
//! both compiles produce the same bits.
//!
//! **Backward** stays on the GEMMs of [`crate::gemm`]:
//!
//! - weight gradient: `gW += g_b · col_bᵀ` (B-transposed variant), where the
//!   `[IC·K·K, OH·OW]` patch matrix `col_b` is cut out of the padded planes
//!   with one contiguous copy per (tap, output row),
//! - input gradient: `gcol = Wᵀ · g_b` (A-transposed variant) scattered back
//!   with col2im, only when the caller asks for it (a model's first layer
//!   is not asked: its input is the data batch).
//!
//! The training forward pass caches the padded planes, not the `K·K`-fold
//! replicated patch matrices. Batch items are processed serially in
//! ascending order, keeping gradient accumulation deterministic; the
//! parallelism of a training round is one node per worker, above the layer.

use crate::init;
use crate::layer::{Cache, Layer, LayerInit};
use crate::simd::Width;
use crate::tensor::Tensor;
use rand::Rng;

/// Output channels per register tile of the direct forward kernel.
const MR: usize = 4;
/// Output columns per register tile of the direct forward kernel.
const NR: usize = 8;

/// A 2-D convolution layer over `[B, C, H, W]` inputs.
///
/// Parameters: weights of shape `[out_ch, in_ch, k, k]`, then the
/// `[out_ch]` bias. Stride is fixed at 1 and the input is zero-padded by
/// `pad` pixels on every side, so the output spatial size is
/// `H + 2·pad − k + 1`.
pub struct Conv2d {
    in_ch: usize,
    out_ch: usize,
    k: usize,
    pad: usize,
}

/// Spatial sizes of one call: the `h × w` input, the `oh × ow` output and
/// the `ph × pw` zero-padded plane each input channel is copied into.
#[derive(Clone, Copy)]
struct Geom {
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    ph: usize,
    pw: usize,
}

impl Conv2d {
    /// An `in_ch → out_ch` convolution with square `k × k` kernels and
    /// `pad` pixels of zero padding (architecture only).
    pub fn new(in_ch: usize, out_ch: usize, k: usize, pad: usize) -> Self {
        Self {
            in_ch,
            out_ch,
            k,
            pad,
        }
    }

    /// He-initialized convolution (the default in front of ReLU).
    pub fn he(in_ch: usize, out_ch: usize, k: usize, pad: usize, rng: &mut impl Rng) -> LayerInit {
        let fan_in = in_ch * k * k;
        LayerInit::new(
            Self::new(in_ch, out_ch, k, pad),
            &[
                init::he_normal(&[out_ch, in_ch, k, k], fan_in, rng),
                Tensor::zeros(&[out_ch]),
            ],
        )
    }

    /// Output spatial size for an input spatial size.
    pub fn out_size(&self, h: usize) -> usize {
        h + 2 * self.pad + 1 - self.k
    }

    /// Validate `x` and return its batch size and the call's geometry. The
    /// padded plane is `pw = ⌈ow / NR⌉·NR + k − 1` wide, so every column
    /// tile, the ragged last one included, reads inside its row.
    fn geom(&self, x: &Tensor) -> (usize, Geom) {
        assert_eq!(x.rank(), 4, "Conv2d expects [B, C, H, W]");
        let (b, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        assert_eq!(c, self.in_ch, "Conv2d channel mismatch");
        assert!(
            h + 2 * self.pad >= self.k && w + 2 * self.pad >= self.k,
            "Conv2d input smaller than kernel"
        );
        let (oh, ow) = (self.out_size(h), self.out_size(w));
        let g = Geom {
            h,
            w,
            oh,
            ow,
            ph: h + 2 * self.pad,
            pw: ow.div_ceil(NR) * NR + self.k - 1,
        };
        (b, g)
    }

    /// Copy every `[H, W]` plane of `x` into a zeroed `[PH, PW]` plane, pixel
    /// `(y, x)` landing at `(y + pad, x + pad)`.
    fn padded(&self, x: &Tensor, g: &Geom) -> Vec<f32> {
        let xs = x.as_slice();
        let mut planes = vec![0.0f32; xs.len() / (g.h * g.w) * g.ph * g.pw];
        for (src, dst) in xs
            .chunks_exact(g.h * g.w)
            .zip(planes.chunks_exact_mut(g.ph * g.pw))
        {
            for (y, row) in src.chunks_exact(g.w).enumerate() {
                let at = (y + self.pad) * g.pw + self.pad;
                dst[at..at + g.w].copy_from_slice(row);
            }
        }
        planes
    }

    /// Offset of tap `(c, ky, kx)` inside one image's padded planes, in
    /// ascending tap order: output `(oy, ox)` reads it at
    /// `offset + oy·PW + ox`.
    fn tap_offsets(&self, g: &Geom) -> Vec<usize> {
        let k = self.k;
        (0..self.in_ch * k * k)
            .map(|t| ((t / (k * k)) * g.ph + t / k % k) * g.pw + t % k)
            .collect()
    }

    /// The weights and bias of `p` regrouped for the register tile: block
    /// `i` holds channels `i·MR ..` as `[IC·K·K][MR]` weights and `[MR]`
    /// biases, zero-filled past the last channel.
    fn packed_params(&self, p: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let ickk = self.in_ch * self.k * self.k;
        let blocks = self.out_ch.div_ceil(MR);
        let (ws, bs) = p.split_at(self.out_ch * ickk);
        let mut wpack = vec![0.0f32; blocks * ickk * MR];
        let mut bpack = vec![0.0f32; blocks * MR];
        for o in 0..self.out_ch {
            let (blk, r) = (o / MR, o % MR);
            for t in 0..ickk {
                wpack[(blk * ickk + t) * MR + r] = ws[o * ickk + t];
            }
            bpack[blk * MR + r] = bs[o];
        }
        (wpack, bpack)
    }

    /// Direct convolution of one image: `out[o, oy, ox] = bias[o] +
    /// Σ_t w[o, t] · xp[taps[t] + oy·PW + ox]`, each chain in ascending tap
    /// order, over `MR × NR` register tiles of `simd`'s compile.
    fn forward_image(
        &self,
        simd: Width,
        taps: &[usize],
        (wpack, bpack): (&[f32], &[f32]),
        xp: &[f32],
        g: &Geom,
        out: &mut [f32],
    ) {
        let ohow = g.oh * g.ow;
        let blocks = wpack
            .chunks_exact(taps.len() * MR)
            .zip(bpack.chunks_exact(MR));
        for (blk, (wb, bb)) in blocks.enumerate() {
            let o0 = blk * MR;
            let rows = MR.min(self.out_ch - o0);
            for oy in 0..g.oh {
                for x0 in (0..g.ow).step_by(NR) {
                    let mut acc = [0.0f32; MR * NR];
                    for (row, &b) in acc.chunks_exact_mut(NR).zip(bb) {
                        row.fill(b);
                    }
                    let x = &xp[oy * g.pw + x0..];
                    match simd.avx2() {
                        // SAFETY: a `Width` says AVX2 only on a host that has it.
                        #[cfg(target_arch = "x86_64")]
                        true => unsafe { tile_avx2(taps, wb, x, &mut acc) },
                        _ => tile_plain(taps, wb, x, &mut acc),
                    }
                    let width = NR.min(g.ow - x0);
                    for (r, row) in acc.chunks_exact(NR).take(rows).enumerate() {
                        let at = (o0 + r) * ohow + oy * g.ow + x0;
                        out[at..at + width].copy_from_slice(&row[..width]);
                    }
                }
            }
        }
    }

    /// [`Layer::forward`] on the register tile of `simd`'s compile.
    fn forward_with(&self, simd: Width, p: &[f32], x: &Tensor, train: bool) -> (Tensor, Cache) {
        let (b, g) = self.geom(x);
        let ohow = g.oh * g.ow;
        let oc = self.out_ch;
        let plane = self.in_ch * g.ph * g.pw;
        let planes = self.padded(x, &g);
        let taps = self.tap_offsets(&g);
        let (wpack, bpack) = self.packed_params(p);
        let mut out = vec![0.0f32; b * oc * ohow];
        for (xp, ob) in planes
            .chunks_exact(plane)
            .zip(out.chunks_exact_mut(oc * ohow))
        {
            self.forward_image(simd, &taps, (&wpack, &bpack), xp, &g, ob);
        }
        let cache = if train {
            Cache::new(planes)
        } else {
            Cache::none()
        };
        (Tensor::from_vec(vec![b, oc, g.oh, g.ow], out), cache)
    }

    /// Cut one image's `[IC·K·K, OH·OW]` patch matrix out of its padded
    /// planes: row `(c, ky, kx)` holds the pixel (a stored zero in the
    /// border) each output position multiplies against that tap. One
    /// contiguous copy per (tap, output row).
    fn patches(&self, taps: &[usize], xp: &[f32], g: &Geom, col: &mut [f32]) {
        for (&off, dst) in taps.iter().zip(col.chunks_exact_mut(g.oh * g.ow)) {
            for (oy, drow) in dst.chunks_exact_mut(g.ow).enumerate() {
                let at = off + oy * g.pw;
                drow.copy_from_slice(&xp[at..at + g.ow]);
            }
        }
    }

    /// Scatter a `[IC·K·K, OH·OW]` patch-gradient matrix back onto one
    /// image's zeroed padded gradient planes (the transpose of [`Self::patches`]):
    /// one contiguous add per (tap, output row), taps in ascending order, so
    /// every pixel accumulates its taps in the same order as a per-pixel
    /// col2im. What lands in the border is dropped by [`Self::unpad`].
    fn col2im(&self, taps: &[usize], gcol: &[f32], g: &Geom, gpad: &mut [f32]) {
        for (&off, src) in taps.iter().zip(gcol.chunks_exact(g.oh * g.ow)) {
            for (oy, srow) in src.chunks_exact(g.ow).enumerate() {
                let at = off + oy * g.pw;
                for (d, &v) in gpad[at..at + g.ow].iter_mut().zip(srow) {
                    *d += v;
                }
            }
        }
    }

    /// Copy the interior of `[PH, PW]` planes back into `[H, W]` planes (the
    /// inverse of [`Self::padded`]).
    fn unpad(&self, gpad: &[f32], g: &Geom, gx: &mut [f32]) {
        for (src, dst) in gpad
            .chunks_exact(g.ph * g.pw)
            .zip(gx.chunks_exact_mut(g.h * g.w))
        {
            for (y, row) in dst.chunks_exact_mut(g.w).enumerate() {
                let at = (y + self.pad) * g.pw + self.pad;
                row.copy_from_slice(&src[at..at + g.w]);
            }
        }
    }
}

/// One `MR × NR` register tile: `acc[r][j] += w[t][r] · x[taps[t] + j]`
/// for every tap `t` in ascending order, `x` starting at the tile's first
/// output column. Each lane keeps its own serial chain; the `NR`-wide
/// inner loop is the autovectorizer target. The body of both compiles
/// ([`tile_plain`], [`tile_avx2`]), which stay out of line: inlined into
/// the loop nest of [`Conv2d::forward_image`], LLVM leaves the tile scalar
/// and the forward pass runs 2–4× slower.
#[inline(always)]
fn tile(taps: &[usize], w: &[f32], x: &[f32], acc: &mut [f32; MR * NR]) {
    for (&off, wt) in taps.iter().zip(w.chunks_exact(MR)) {
        let xr: &[f32; NR] = x[off..off + NR].try_into().expect("NR-wide row");
        let wt: &[f32; MR] = wt.try_into().expect("MR weights");
        for r in 0..MR {
            let wr = wt[r];
            let row = &mut acc[r * NR..r * NR + NR];
            for (av, &xv) in row.iter_mut().zip(xr) {
                *av += wr * xv;
            }
        }
    }
}

/// [`tile`] for the target's baseline features.
#[inline(never)]
fn tile_plain(taps: &[usize], w: &[f32], x: &[f32], acc: &mut [f32; MR * NR]) {
    tile(taps, w, x, acc)
}

/// [`tile`] compiled for AVX2.
///
/// # Safety
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[inline(never)]
#[target_feature(enable = "avx2")]
unsafe fn tile_avx2(taps: &[usize], w: &[f32], x: &[f32], acc: &mut [f32; MR * NR]) {
    tile(taps, w, x, acc)
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "Conv2d"
    }

    fn param_count(&self) -> usize {
        self.out_ch * self.in_ch * self.k * self.k + self.out_ch
    }

    fn forward(&self, p: &[f32], x: &Tensor, train: bool) -> (Tensor, Cache) {
        self.forward_with(Width::host(), p, x, train)
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
        let (b, g) = self.geom(x);
        let (ic, oc, k) = (self.in_ch, self.out_ch, self.k);
        let (ickk, ohow) = (ic * k * k, g.oh * g.ow);
        let plane = ic * g.ph * g.pw;
        let ws = &p[..oc * ickk];
        let gs = grad_out.as_slice();
        // An inference-mode forward cached nothing: pad the input afresh.
        let fresh;
        let planes: &[f32] = match cache.try_get::<Vec<f32>>() {
            Some(planes) => planes,
            None => {
                fresh = self.padded(x, &g);
                &fresh
            }
        };
        let taps = self.tap_offsets(&g);
        let mut col = vec![0.0f32; ickk * ohow];
        let (grad_w, grad_b) = grad_p.split_at_mut(oc * ickk);
        // The input gradient's buffers, empty when it is not wanted.
        let len = |n: usize| if input_grad { n } else { 0 };
        let xlen = ic * g.h * g.w;
        let mut grad_x = vec![0.0f32; len(b * xlen)];
        let mut gcol = vec![0.0f32; len(ickk * ohow)];
        let mut gpad = vec![0.0f32; len(plane)];
        // Items accumulate in ascending batch order: fixed association,
        // independent of any parallelism in the callers above.
        for bi in 0..b {
            let gb = &gs[bi * oc * ohow..(bi + 1) * oc * ohow];
            for (o, grow) in gb.chunks(ohow).enumerate() {
                for &gv in grow {
                    grad_b[o] += gv;
                }
            }
            self.patches(&taps, &planes[bi * plane..(bi + 1) * plane], &g, &mut col);
            // gW[OC, IC·K·K] += g_b · col_bᵀ
            crate::gemm::gemm_accum(oc, ickk, ohow, gb, false, &col, true, grad_w);
            if !input_grad {
                continue;
            }
            // gcol[IC·K·K, OH·OW] = Wᵀ · g_b, scattered back onto the input
            crate::gemm::gemm(ickk, ohow, oc, ws, true, gb, false, &mut gcol);
            // One image's padded gradient planes, reused while they sit in L1.
            gpad.fill(0.0);
            self.col2im(&taps, &gcol, &g, &mut gpad);
            self.unpad(&gpad, &g, &mut grad_x[bi * xlen..(bi + 1) * xlen]);
        }
        input_grad.then(|| Tensor::from_vec(x.shape().to_vec(), grad_x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{bits, values};

    /// Run `conv.backward` into a zeroed gradient: `(gx, gW ++ gb)`. Also
    /// checks that a pass without the input gradient returns none and the
    /// same parameter gradient, bit for bit.
    fn backward(
        conv: &Conv2d,
        p: &[f32],
        x: &Tensor,
        cache: &Cache,
        g: &Tensor,
    ) -> (Tensor, Vec<f32>) {
        let mut gp = vec![0.0; conv.param_count()];
        let gx = conv.backward(p, x, cache, g.clone(), &mut gp, true);
        let mut gp_only = vec![0.0; conv.param_count()];
        assert!(conv
            .backward(p, x, cache, g.clone(), &mut gp_only, false)
            .is_none());
        assert_eq!(bits(&gp_only), bits(&gp), "parameter gradient without gx");
        (gx.expect("input gradient asked for"), gp)
    }

    /// A 1×1 kernel reduces to a per-pixel scale + bias.
    #[test]
    fn identity_kernel_1x1() {
        let conv = Conv2d::new(1, 1, 1, 0);
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1., 2., 3., 4.]);
        let (y, _) = conv.forward(&[2.0, 0.5], &x, false);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[2.5, 4.5, 6.5, 8.5]);
    }

    /// A 3×3 all-ones kernel on a padded input computes box sums.
    #[test]
    fn box_sum_kernel() {
        let mut p = vec![1.0; 10];
        p[9] = 0.0; // bias
        let conv = Conv2d::new(1, 1, 3, 1);
        let x = Tensor::filled(&[1, 1, 3, 3], 1.0);
        let (y, _) = conv.forward(&p, &x, false);
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
        let init = Conv2d::he(2, 4, 3, 0, &mut rng);
        let x = Tensor::zeros(&[2, 2, 8, 8]);
        let (y, _) = init.layer.forward(&init.params, &x, false);
        assert_eq!(y.shape(), &[2, 4, 6, 6]);
    }

    #[test]
    fn backward_shapes() {
        let mut rng = crate::rng::seeded(1);
        let p = Conv2d::he(2, 3, 3, 1, &mut rng).params;
        let conv = Conv2d::new(2, 3, 3, 1);
        let x = Tensor::from_fn(&[2, 2, 5, 5], |i| (i % 11) as f32 * 0.1);
        let (y, c) = conv.forward(&p, &x, true);
        let g = Tensor::filled(y.shape(), 1.0);
        let (gx, gp) = backward(&conv, &p, &x, &c, &g);
        assert_eq!(gx.shape(), x.shape());
        assert_eq!(gp.len(), 3 * 2 * 3 * 3 + 3);
        // bias gradient = number of output pixels per channel per batch
        assert_eq!(gp[3 * 2 * 3 * 3], (2 * 5 * 5) as f32);
    }

    /// backward must work (by padding the input afresh) even when forward
    /// ran in inference mode and cached no padded planes.
    #[test]
    fn backward_without_cached_columns() {
        let mut rng = crate::rng::seeded(2);
        let p = Conv2d::he(1, 2, 3, 1, &mut rng).params;
        let conv = Conv2d::new(1, 2, 3, 1);
        let x = Tensor::from_fn(&[1, 1, 4, 4], |i| (i % 5) as f32 * 0.2);
        let (y, cache_train) = conv.forward(&p, &x, true);
        let g = Tensor::filled(y.shape(), 0.5);
        let (gx_cached, gp_cached) = backward(&conv, &p, &x, &cache_train, &g);
        let (gx_fresh, gp_fresh) = backward(&conv, &p, &x, &Cache::none(), &g);
        assert_eq!(gx_cached.as_slice(), gx_fresh.as_slice());
        assert_eq!(gp_cached, gp_fresh);
    }

    /// The im2col + GEMM convolution the direct kernel replaced, kept as
    /// the differential oracle. `im2col` unfolds one item into the
    /// `[IC·K·K, OH·OW]` patch matrix with a per-pixel padding branch.
    fn im2col(conv: &Conv2d, xb: &[f32], g: &Geom, col: &mut [f32]) {
        let (ic, k, pad) = (conv.in_ch, conv.k, conv.pad);
        let (h, w, oh, ow) = (g.h, g.w, g.oh, g.ow);
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

    /// The oracle's col2im: scatter a patch-gradient matrix back onto the
    /// input plane pixel by pixel, dropping padding taps.
    fn col2im(conv: &Conv2d, gcol: &[f32], g: &Geom, gx: &mut [f32]) {
        let (ic, k, pad) = (conv.in_ch, conv.k, conv.pad);
        let (h, w, oh, ow) = (g.h, g.w, g.oh, g.ow);
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

    /// Oracle forward: per item, `fill(bias)` then `gemm_accum(W, col)`.
    fn oracle_forward(conv: &Conv2d, p: &[f32], x: &Tensor) -> Vec<f32> {
        let (b, g) = conv.geom(x);
        let (ic, oc, k) = (conv.in_ch, conv.out_ch, conv.k);
        let (ickk, ohow, xlen) = (ic * k * k, g.oh * g.ow, ic * g.h * g.w);
        let mut col = vec![0.0f32; ickk * ohow];
        let mut out = vec![0.0f32; b * oc * ohow];
        for bi in 0..b {
            im2col(
                conv,
                &x.as_slice()[bi * xlen..(bi + 1) * xlen],
                &g,
                &mut col,
            );
            let ob = &mut out[bi * oc * ohow..(bi + 1) * oc * ohow];
            let (ws, bs) = p.split_at(oc * ickk);
            for (o, row) in ob.chunks_mut(ohow).enumerate() {
                row.fill(bs[o]);
            }
            crate::gemm::gemm_accum(oc, ohow, ickk, ws, false, &col, false, ob);
        }
        out
    }

    /// Oracle backward over im2col patch matrices: `(gx, gW, gb)`.
    fn oracle_backward(conv: &Conv2d, p: &[f32], x: &Tensor, grad: &Tensor) -> [Vec<f32>; 3] {
        let (b, g) = conv.geom(x);
        let (ic, oc, k) = (conv.in_ch, conv.out_ch, conv.k);
        let (ickk, ohow, xlen) = (ic * k * k, g.oh * g.ow, ic * g.h * g.w);
        let gs = grad.as_slice();
        let mut col = vec![0.0f32; ickk * ohow];
        let mut gcol = vec![0.0f32; ickk * ohow];
        let mut gw = vec![0.0f32; oc * ickk];
        let mut gb = vec![0.0f32; oc];
        let mut gx = vec![0.0f32; b * xlen];
        for bi in 0..b {
            let gi = &gs[bi * oc * ohow..(bi + 1) * oc * ohow];
            for (o, grow) in gi.chunks(ohow).enumerate() {
                for &v in grow {
                    gb[o] += v;
                }
            }
            im2col(
                conv,
                &x.as_slice()[bi * xlen..(bi + 1) * xlen],
                &g,
                &mut col,
            );
            crate::gemm::gemm_accum(oc, ickk, ohow, gi, false, &col, true, &mut gw);
            let ws = &p[..oc * ickk];
            crate::gemm::gemm(ickk, ohow, oc, ws, true, gi, false, &mut gcol);
            col2im(conv, &gcol, &g, &mut gx[bi * xlen..(bi + 1) * xlen]);
        }
        [gx, gw, gb]
    }

    fn assert_bits(what: &str, shape: &str, got: &[f32], want: &[f32]) {
        assert_eq!(got.len(), want.len(), "{what} length, {shape}");
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{what}[{i}] differs for {shape}: {a} vs {b}"
            );
        }
    }

    /// Direct forward (both modes) and all three gradients (with and
    /// without cached planes) equal the im2col + GEMM oracle bit for bit,
    /// on shapes that leave ragged channel and column tiles.
    #[test]
    fn conv_direct_matches_im2col_gemm_oracle_bitwise() {
        let mut case = 0u64;
        for oc in [1usize, 3, 5, 6, 12] {
            for ow in [1usize, 7, 8, 9, 17] {
                for pad in 0usize..=2 {
                    for k in [1usize, 2, 3, 5] {
                        // the input width that yields `ow`
                        let Some(w) = (ow + k - 1).checked_sub(2 * pad).filter(|&w| w > 0) else {
                            continue;
                        };
                        case += 1;
                        let ic = 1 + (case % 3) as usize;
                        let b = 1 + (case / 3 % 3) as usize;
                        let h = 1 + (case % 4) as usize + k.saturating_sub(2 * pad);
                        let conv = Conv2d::new(ic, oc, k, pad);
                        let p = [values(case, oc * ic * k * k), values(case + 101, oc)].concat();
                        let x =
                            Tensor::from_vec(vec![b, ic, h, w], values(case + 7, b * ic * h * w));
                        let shape = format!("oc={oc} ic={ic} k={k} pad={pad} b={b} h={h} w={w}");
                        let want = oracle_forward(&conv, &p, &x);
                        let (y_inf, _) = conv.forward(&p, &x, false);
                        let (y_train, cache) = conv.forward(&p, &x, true);
                        assert_eq!(y_inf.shape()[3], ow);
                        assert_bits("forward(infer)", &shape, y_inf.as_slice(), &want);
                        assert_bits("forward(train)", &shape, y_train.as_slice(), &want);

                        let grad = Tensor::from_vec(
                            y_train.shape().to_vec(),
                            values(case + 13, y_train.len()),
                        );
                        let [gx, gw, gb] = oracle_backward(&conv, &p, &x, &grad);
                        for (mode, c) in [("cached", &cache), ("fresh", &Cache::none())] {
                            let (dx, dp) = backward(&conv, &p, &x, c, &grad);
                            let (dw, db) = dp.split_at(gw.len());
                            assert_bits(&format!("gx({mode})"), &shape, dx.as_slice(), &gx);
                            assert_bits(&format!("gW({mode})"), &shape, dw, &gw);
                            assert_bits(&format!("gb({mode})"), &shape, db, &gb);
                        }
                    }
                }
            }
        }
        assert!(case > 200, "only {case} shapes ran");
    }

    /// Both compiles of the register tile, run directly, against the
    /// im2col + GEMM oracle on the convolutions of the scaled and paper
    /// FEMNIST CNNs (16×16 images) at 1, 4, 7 and 16 rows, bit for bit.
    #[test]
    fn dispatch_compiles_match_im2col_oracle_bitwise() {
        let compiles = crate::simd::compiles_on_host("conv dispatch differential");
        for (c1, c2) in [(6, 12), (32, 64)] {
            for (ic, oc, side) in [(1, c1, 16), (c1, c2, 8)] {
                let conv = Conv2d::new(ic, oc, 3, 1);
                for rows in [1usize, 4, 7, 16] {
                    let seed = (oc * 100 + rows) as u64;
                    let p = [values(seed, oc * ic * 9), values(seed + 1, oc)].concat();
                    let len = rows * ic * side * side;
                    let x = Tensor::from_vec(vec![rows, ic, side, side], values(seed + 2, len));
                    let want = oracle_forward(&conv, &p, &x);
                    for &simd in &compiles {
                        let shape = format!("{simd:?} ic={ic} oc={oc} side={side} rows={rows}");
                        for train in [false, true] {
                            let (y, _) = conv.forward_with(simd, &p, &x, train);
                            assert_bits("forward", &shape, y.as_slice(), &want);
                        }
                    }
                }
            }
        }
    }
}
