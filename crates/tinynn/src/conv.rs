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
//! **Backward: two direct kernels over the same planes** (the backward
//! passes of Georganas et al., "Anatomy of High-Performance Deep Learning
//! Convolutions on SIMD Architectures", SC 2018). Neither copies out a
//! `[IC·K·K, OH·OW]` patch matrix:
//!
//! - weight gradient: a register tile of `NR` output channels (lanes, over
//!   the image's gradient transposed to `[OH·OW][NR]` per channel block) ×
//!   `MR` taps (each broadcast from `xp[taps[t] + oy·PW + ox]`). Every
//!   `gW[o, t]` starts from the value already there and adds images in
//!   ascending order and, within an image, positions in ascending order:
//!   the chain of `gW += g_b · col_bᵀ` on [`crate::gemm::gemm_accum`]. The
//!   bias gradient reads the same transposed rows, `NR` channels' serial
//!   chains side by side;
//! - input gradient, only when the caller asks for it (a model's first
//!   layer is not asked: its input is the data batch): a register tile of
//!   `MR` input channels × `NR` input columns. Each pixel starts at `0.0`
//!   and adds its taps `(ky, kx)` in ascending order; a tap's term is the
//!   inner chain `0.0 + Σ_o W[o, t]·g[o, pos]` over ascending `o`, each `g`
//!   row load shared by the tile's `MR` channels. A tap whose output
//!   position falls outside the output adds nothing (a skipped row, a
//!   masked lane), not a product with a stored zero, which would differ
//!   under a non-finite weight. That is the chain of `gcol = Wᵀ·g_b` on
//!   [`crate::gemm::gemm`] followed by col2im.
//!
//! The im2col + GEMM backward survives only as the differential oracle in
//! `mod tests`. Both kernels have the forward tile's two compiles.
//!
//! **Buffers.** The output and the input gradient are the caller's (see
//! [`crate::layer`]); everything else is in the [`Cache`], kept from call
//! to call: float buffer 0 holds the padded planes, which every forward
//! pass writes and the backward pass reads, 1 and 2 the forward tile's
//! packed weights and biases, 3 one image's gradient transposed for the
//! weight-gradient tile, 4 its upstream gradient rows with a zero margin,
//! 5 the weights regrouped for the input-gradient tile and 6 the weight
//! gradient regrouped for the weight-gradient tile, which accumulates
//! there from image to image; `dims` holds the tap offsets. No buffer
//! holds a `K·K`-fold replicated patch matrix. The planes are zeroed
//! before the image is copied in, so their border reads as stored zeros,
//! and buffers 4 and 6 once per backward pass, so that the margin and the
//! padding lanes read as zeros; every other buffer is written in full
//! before it is read. Batch items are processed serially in ascending
//! order, keeping gradient accumulation deterministic; every kernel runs
//! on its caller's thread, and the parallelism of a training round is one
//! node per worker, above the layer.

use crate::init;
use crate::layer::{Cache, Layer, LayerInit};
use crate::simd::Width;
use crate::tensor::Tensor;
use crate::workspace::{fit, zeroed};
use rand::Rng;

/// Rows per register tile: output channels of the forward tile, taps of
/// the weight-gradient tile, input channels of the input-gradient tile.
const MR: usize = 4;
/// Lanes per register tile: output columns of the forward tile, output
/// channels of the weight-gradient tile, input columns of the
/// input-gradient tile.
const NR: usize = 8;

/// A 2-D convolution layer over `[B, C, H, W]` inputs.
///
/// Parameters: weights of shape `[out_ch, in_ch, k, k]`, then the
/// `[out_ch]` bias. Stride is fixed at 1 and the input is zero-padded by
/// `pad` pixels on every side, so the output spatial size is
/// `H + 2·pad − k + 1`.
pub(crate) struct Conv2d {
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
    pub(crate) fn new(in_ch: usize, out_ch: usize, k: usize, pad: usize) -> Self {
        Self {
            in_ch,
            out_ch,
            k,
            pad,
        }
    }

    /// He-initialized convolution (the default in front of ReLU).
    pub(crate) fn he(
        in_ch: usize,
        out_ch: usize,
        k: usize,
        pad: usize,
        rng: &mut impl Rng,
    ) -> LayerInit {
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
    pub(crate) fn out_size(&self, h: usize) -> usize {
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

    /// Copy every `[H, W]` plane of `x` into a zeroed `[PH, PW]` plane of
    /// `planes`, pixel `(y, x)` landing at `(y + pad, x + pad)`.
    fn pad_into(&self, x: &Tensor, g: &Geom, planes: &mut Vec<f32>) {
        let xs = x.as_slice();
        let planes = zeroed(planes, xs.len() / (g.h * g.w) * g.ph * g.pw);
        for (src, dst) in xs
            .chunks_exact(g.h * g.w)
            .zip(planes.chunks_exact_mut(g.ph * g.pw))
        {
            for (y, row) in src.chunks_exact(g.w).enumerate() {
                let at = (y + self.pad) * g.pw + self.pad;
                dst[at..at + g.w].copy_from_slice(row);
            }
        }
    }

    /// Offset of tap `(c, ky, kx)` inside one image's padded planes, in
    /// ascending tap order, into `taps`: output `(oy, ox)` reads it at
    /// `offset + oy·PW + ox`.
    fn tap_offsets(&self, g: &Geom, taps: &mut Vec<usize>) {
        let k = self.k;
        for (t, off) in fit(taps, self.in_ch * k * k).iter_mut().enumerate() {
            *off = ((t / (k * k)) * g.ph + t / k % k) * g.pw + t % k;
        }
    }

    /// The weights and bias of `p` regrouped for the register tile into
    /// `wpack` and `bpack`: block `i` holds channels `i·MR ..` as
    /// `[IC·K·K][MR]` weights and `[MR]` biases, zero-filled past the last
    /// channel.
    fn pack_params(&self, p: &[f32], wpack: &mut Vec<f32>, bpack: &mut Vec<f32>) {
        let ickk = self.in_ch * self.k * self.k;
        let blocks = self.out_ch.div_ceil(MR);
        let (ws, bs) = p.split_at(self.out_ch * ickk);
        let wpack = zeroed(wpack, blocks * ickk * MR);
        let bpack = zeroed(bpack, blocks * MR);
        for o in 0..self.out_ch {
            let (blk, r) = (o / MR, o % MR);
            for t in 0..ickk {
                wpack[(blk * ickk + t) * MR + r] = ws[o * ickk + t];
            }
            bpack[blk * MR + r] = bs[o];
        }
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

    /// [`Layer::forward_into`] on the register tile of `simd`'s compile.
    /// Every output value is written by exactly one tile.
    fn forward_with(&self, simd: Width, p: &[f32], x: &Tensor, y: &mut Tensor, cache: &mut Cache) {
        let (b, g) = self.geom(x);
        let ohow = g.oh * g.ow;
        let oc = self.out_ch;
        let plane = self.in_ch * g.ph * g.pw;
        let [planes, wpack, bpack] = cache.floats.first();
        self.pad_into(x, &g, planes);
        self.tap_offsets(&g, &mut cache.dims);
        self.pack_params(p, wpack, bpack);
        let out = y.resize([b, oc, g.oh, g.ow]);
        for (xp, ob) in planes
            .chunks_exact(plane)
            .zip(out.chunks_exact_mut(oc * ohow))
        {
            self.forward_image(
                simd,
                &cache.dims,
                (wpack.as_slice(), bpack.as_slice()),
                xp,
                &g,
                ob,
            );
        }
    }

    /// The weights of `p` regrouped for the input-gradient tile into
    /// `dpack`: block `i` holds input channels `i·MR ..` as `[K·K][OC][MR]`,
    /// zero-filled past the last channel.
    fn pack_data_weights(&self, p: &[f32], dpack: &mut Vec<f32>) {
        let (ic, oc, kk) = (self.in_ch, self.out_ch, self.k * self.k);
        let dpack = zeroed(dpack, ic.div_ceil(MR) * kk * oc * MR);
        for (o, wo) in p[..oc * ic * kk].chunks_exact(ic * kk).enumerate() {
            for (c, wc) in wo.chunks_exact(kk).enumerate() {
                let (blk, r) = (c / MR, c % MR);
                for (t, &w) in wc.iter().enumerate() {
                    dpack[((blk * kk + t) * oc + o) * MR + r] = w;
                }
            }
        }
    }

    /// Copy the weight gradient between `grad_w`, `[OC, IC·K·K]`, and the
    /// weight-gradient tile's layout `gwt`: block `i` holds output channels
    /// `i·NR ..` as `[IC·K·K rounded up to MR][NR]`, zero past the last
    /// channel and tap.
    fn regroup_weight_grad(&self, grad_w: &mut [f32], gwt: &mut Vec<f32>, pack: bool) {
        let ickk = grad_w.len() / self.out_ch;
        let tpad = ickk.div_ceil(MR) * MR;
        if pack {
            zeroed(gwt, self.out_ch.div_ceil(NR) * tpad * NR);
        }
        for (o, row) in grad_w.chunks_exact_mut(ickk).enumerate() {
            let at = (o / NR) * tpad * NR + o % NR;
            for (t, w) in row.iter_mut().enumerate() {
                let v = &mut gwt[at + t * NR];
                if pack {
                    *v = *w;
                } else {
                    *w = *v;
                }
            }
        }
    }

    /// Add one image's parameter gradients into `gwt` (the weight gradient
    /// as [`Self::regroup_weight_grad`] lays it out) and `grad_b`: `gW[o, t]
    /// += Σ_pos g[o, pos] · xp[taps[t] + pos]` over `MR × NR` register tiles
    /// of `simd`'s compile, and `gb[o] += Σ_pos g[o, pos]`, positions
    /// ascending in both. `gt` is the image's gradient as [`transpose_grad`]
    /// leaves it.
    fn param_grad(
        &self,
        simd: Width,
        (taps, xp): (&[usize], &[f32]),
        g: &Geom,
        gt: &[f32],
        (gwt, grad_b): (&mut [f32], &mut [f32]),
    ) {
        let ickk = taps.len();
        let blocks = gt
            .chunks_exact(g.oh * g.ow * NR)
            .zip(gwt.chunks_exact_mut(ickk.div_ceil(MR) * MR * NR));
        for (blk, (gtb, wb)) in blocks.enumerate() {
            let o0 = blk * NR;
            let lanes = NR.min(self.out_ch - o0);
            // One serial chain per channel, `NR` channels side by side.
            let mut bias = [0.0f32; NR];
            bias[..lanes].copy_from_slice(&grad_b[o0..o0 + lanes]);
            for gv in gtb.chunks_exact(NR) {
                for (b, &v) in bias.iter_mut().zip(gv) {
                    *b += v;
                }
            }
            grad_b[o0..o0 + lanes].copy_from_slice(&bias[..lanes]);
            for (t0, acc) in (0..ickk).step_by(MR).zip(wb.chunks_exact_mut(MR * NR)) {
                // A ragged last block repeats its last tap in rows that are
                // never copied back.
                let tt: [usize; MR] = std::array::from_fn(|r| taps[(t0 + r).min(ickk - 1)]);
                let acc: &mut [f32; MR * NR] = acc.try_into().expect("MR rows");
                match simd.avx2() {
                    // SAFETY: a `Width` says AVX2 only on a host that has it.
                    #[cfg(target_arch = "x86_64")]
                    true => unsafe { wgrad_tile_avx2(&tt, xp, g, gtb, acc) },
                    _ => wgrad_tile_plain(&tt, xp, g, gtb, acc),
                }
            }
        }
    }

    /// One image's input gradient into `gx`, over `MR × NR` register tiles
    /// of `simd`'s compile: every pixel is written by exactly one tile.
    /// `rows` is the image's upstream gradient laid out as `d` says.
    fn data_grad(
        &self,
        simd: Width,
        dpack: &[f32],
        rows: &[f32],
        d: &GradRows,
        g: &Geom,
        gx: &mut [f32],
    ) {
        let hw = g.h * g.w;
        let blocks = dpack.chunks_exact(self.k * self.k * self.out_ch * MR);
        for (blk, wb) in blocks.enumerate() {
            let c0 = blk * MR;
            let chans = MR.min(self.in_ch - c0);
            for iy in 0..g.h {
                for x0 in (0..g.w).step_by(NR) {
                    let mut acc = [0.0f32; MR * NR];
                    match simd.avx2() {
                        // SAFETY: a `Width` says AVX2 only on a host that has it.
                        #[cfg(target_arch = "x86_64")]
                        true => unsafe { dgrad_tile_avx2(wb, rows, d, (iy, x0), &mut acc) },
                        _ => dgrad_tile_plain(wb, rows, d, (iy, x0), &mut acc),
                    }
                    let width = NR.min(g.w - x0);
                    for (r, row) in acc.chunks_exact(NR).take(chans).enumerate() {
                        let at = (c0 + r) * hw + iy * g.w + x0;
                        gx[at..at + width].copy_from_slice(&row[..width]);
                    }
                }
            }
        }
    }

    /// [`Layer::backward_into`] on the kernels of `simd`'s compile.
    #[allow(clippy::too_many_arguments)]
    fn backward_with(
        &self,
        simd: Width,
        p: &[f32],
        x: &Tensor,
        cache: &mut Cache,
        dy: &mut Tensor,
        dx: Option<&mut Tensor>,
        grad_p: &mut [f32],
    ) {
        let (b, g) = self.geom(x);
        let (ic, oc) = (self.in_ch, self.out_ch);
        let ohow = g.oh * g.ow;
        let plane = ic * g.ph * g.pw;
        let gs = dy.as_slice();
        let [planes, _, _, gt, rows, dpack, gwt] = cache.floats.first();
        assert_eq!(
            planes.len(),
            b * plane,
            "Conv2d: backward needs its forward pass"
        );
        let taps = &cache.dims;
        let gt = fit(gt, oc.div_ceil(NR) * ohow * NR);
        let (grad_w, grad_b) = grad_p.split_at_mut(oc * taps.len());
        self.regroup_weight_grad(grad_w, gwt, true);
        // The input gradient's buffers, only when it is wanted.
        let d = GradRows::new(self, &g);
        let xlen = ic * g.h * g.w;
        let mut dx = dx.map(|dx| {
            self.pack_data_weights(p, dpack);
            (dx.resize(x.shape()), zeroed(rows, oc * g.oh * d.gw))
        });
        // Items accumulate in ascending batch order: fixed association,
        // independent of any parallelism in the callers above.
        for (bi, gb) in gs.chunks_exact(oc * ohow).enumerate() {
            transpose_grad(gb, ohow, gt);
            let xp = &planes[bi * plane..(bi + 1) * plane];
            self.param_grad(simd, (taps, xp), &g, gt, (gwt, grad_b));
            let Some((grad_x, rows)) = dx.as_mut() else {
                continue;
            };
            for (src, dst) in gb.chunks_exact(g.ow).zip(rows.chunks_exact_mut(d.gw)) {
                dst[d.k - 1..d.k - 1 + g.ow].copy_from_slice(src);
            }
            let gx = &mut grad_x[bi * xlen..(bi + 1) * xlen];
            self.data_grad(simd, dpack, rows, &d, &g, gx);
        }
        self.regroup_weight_grad(grad_w, gwt, false);
    }
}

/// One image's gradient `gb`, `[OC, OH·OW]`, transposed into `gt` as
/// `[OC / NR][OH·OW][NR]` (channel blocks of `NR` lanes), zero past the
/// last channel.
fn transpose_grad(gb: &[f32], ohow: usize, gt: &mut [f32]) {
    for (blk, dst) in gt.chunks_exact_mut(ohow * NR).enumerate() {
        let src: [Option<&[f32]>; NR] =
            std::array::from_fn(|l| gb.get((blk * NR + l) * ohow..(blk * NR + l + 1) * ohow));
        for (pos, d) in dst.chunks_exact_mut(NR).enumerate() {
            for (dv, row) in d.iter_mut().zip(&src) {
                *dv = row.map_or(0.0, |r| r[pos]);
            }
        }
    }
}

/// One image's upstream gradient as the input-gradient tile reads it:
/// `[OC, OH, GW]` rows holding output column `ox` at `k − 1 + ox`, with
/// zeros around it, so that the tile's `NR`-wide read at every tap stays
/// inside its row; the lanes that read the margin are masked.
#[derive(Clone, Copy)]
struct GradRows {
    k: usize,
    pad: usize,
    oc: usize,
    oh: usize,
    ow: usize,
    gw: usize,
}

impl GradRows {
    /// The rows of `conv` at geometry `g`: input column `x` reads output
    /// column `x + pad − kx` at tap `kx`, so a tile starting at `x0` reads
    /// from `x0 + pad` (tap `k − 1`) to `x0 + pad + k − 1 + NR` (tap 0).
    fn new(conv: &Conv2d, g: &Geom) -> Self {
        let (k, pad) = (conv.k, conv.pad);
        GradRows {
            k,
            pad,
            oc: conv.out_ch,
            oh: g.oh,
            ow: g.ow,
            gw: k - 1 + g.ow.max(g.w.div_ceil(NR) * NR + pad),
        }
    }
}

/// One `MR × NR` register tile: `acc[r][j] += w[t][r] · x[taps[t] + j]`
/// for every tap `t` in ascending order, `x` starting at the tile's first
/// output column. Each lane keeps its own serial chain; the `NR`-wide
/// inner loop is the autovectorizer target. The tile accumulates in a
/// local copy of `acc`, stored back once: on `acc` itself LLVM stores the
/// tile back after every tap, since a failed bounds check could observe
/// it. The body of both compiles ([`tile_plain`], [`tile_avx2`]), which
/// stay out of line: inlined into the loop nest of
/// [`Conv2d::forward_image`], LLVM leaves the tile scalar and the forward
/// pass runs 2–4× slower.
#[inline(always)]
fn tile(taps: &[usize], w: &[f32], x: &[f32], acc: &mut [f32; MR * NR]) {
    let mut a = *acc;
    for (&off, wt) in taps.iter().zip(w.chunks_exact(MR)) {
        let xr: &[f32; NR] = x[off..off + NR].try_into().expect("NR-wide row");
        let wt: &[f32; MR] = wt.try_into().expect("MR weights");
        for r in 0..MR {
            let wr = wt[r];
            let row = &mut a[r * NR..r * NR + NR];
            for (av, &xv) in row.iter_mut().zip(xr) {
                *av += wr * xv;
            }
        }
    }
    *acc = a;
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

/// One weight-gradient register tile over one image: `acc[r][l] +=
/// gt[pos][l] · xp[taps[r] + oy·PW + ox]` for every output position `pos =
/// (oy, ox)` in ascending order, lanes `l` over `NR` output channels. Each
/// lane keeps its own serial chain. The body of both compiles
/// ([`wgrad_tile_plain`], [`wgrad_tile_avx2`]), which stay out of line for
/// the reason [`tile`] gives.
#[inline(always)]
fn wgrad_tile(taps: &[usize; MR], xp: &[f32], g: &Geom, gt: &[f32], acc: &mut [f32; MR * NR]) {
    // A local copy stays in registers: `acc` itself would be stored back
    // at every position, since a failed bounds check could observe it.
    let mut a = *acc;
    for oy in 0..g.oh {
        let at = oy * g.pw;
        let x: [&[f32]; MR] = std::array::from_fn(|r| &xp[taps[r] + at..taps[r] + at + g.ow]);
        let grow = &gt[oy * g.ow * NR..(oy + 1) * g.ow * NR];
        for (ox, gv) in grow.chunks_exact(NR).enumerate() {
            let gv: &[f32; NR] = gv.try_into().expect("NR channels");
            for (r, xr) in x.iter().enumerate() {
                let xv = xr[ox];
                let row = &mut a[r * NR..r * NR + NR];
                for (av, &gl) in row.iter_mut().zip(gv) {
                    *av += gl * xv;
                }
            }
        }
    }
    *acc = a;
}

/// [`wgrad_tile`] for the target's baseline features.
#[inline(never)]
fn wgrad_tile_plain(
    taps: &[usize; MR],
    xp: &[f32],
    g: &Geom,
    gt: &[f32],
    acc: &mut [f32; MR * NR],
) {
    wgrad_tile(taps, xp, g, gt, acc)
}

/// [`wgrad_tile`] compiled for AVX2.
///
/// # Safety
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[inline(never)]
#[target_feature(enable = "avx2")]
unsafe fn wgrad_tile_avx2(
    taps: &[usize; MR],
    xp: &[f32],
    g: &Geom,
    gt: &[f32],
    acc: &mut [f32; MR * NR],
) {
    wgrad_tile(taps, xp, g, gt, acc)
}

/// One input-gradient register tile: `MR` input channels (rows, weights
/// `w` as `[K·K][OC][MR]`) × the `NR` input columns from `x0` of input row
/// `iy` (lanes). For each tap `(ky, kx)` in ascending order the tile forms
/// `inner = 0.0 + Σ_o w[o] · g[o, oy, x + pad − kx]` over ascending `o`,
/// one `g` row load shared by every row, and adds it to `acc`, which
/// starts at `0.0`. A tap whose output row `oy = iy + pad − ky` leaves the
/// output is skipped, and lanes whose output column leaves it keep their
/// value: such a tap adds nothing, as in col2im. The body of both compiles
/// ([`dgrad_tile_plain`], [`dgrad_tile_avx2`]).
#[inline(always)]
fn dgrad_tile(
    w: &[f32],
    rows: &[f32],
    d: &GradRows,
    (iy, x0): (usize, usize),
    acc: &mut [f32; MR * NR],
) {
    let plane = d.oh * d.gw;
    let mut a = *acc;
    for ky in 0..d.k {
        let Some(oy) = (iy + d.pad).checked_sub(ky).filter(|&oy| oy < d.oh) else {
            continue;
        };
        for kx in 0..d.k {
            // Lane `j` reads output column `x0 + j + pad − kx`: inside the
            // output for `lo <= j < hi`.
            let lo = kx.saturating_sub(x0 + d.pad);
            let hi = (d.ow + kx).saturating_sub(x0 + d.pad);
            let at = oy * d.gw + x0 + d.pad + d.k - 1 - kx;
            let wt = &w[(ky * d.k + kx) * d.oc * MR..(ky * d.k + kx + 1) * d.oc * MR];
            let mut inner = [0.0f32; MR * NR];
            for (o, wo) in wt.chunks_exact(MR).enumerate() {
                let gr: &[f32; NR] = rows[o * plane + at..o * plane + at + NR]
                    .try_into()
                    .expect("NR-wide row");
                for (r, &wr) in wo.iter().enumerate() {
                    let row = &mut inner[r * NR..r * NR + NR];
                    for (iv, &gv) in row.iter_mut().zip(gr) {
                        *iv += wr * gv;
                    }
                }
            }
            for (ar, ir) in a.chunks_exact_mut(NR).zip(inner.chunks_exact(NR)) {
                for (j, (av, &iv)) in ar.iter_mut().zip(ir).enumerate() {
                    let sum = *av + iv;
                    *av = if j >= lo && j < hi { sum } else { *av };
                }
            }
        }
    }
    *acc = a;
}

/// [`dgrad_tile`] for the target's baseline features.
#[inline(never)]
fn dgrad_tile_plain(
    w: &[f32],
    rows: &[f32],
    d: &GradRows,
    at: (usize, usize),
    acc: &mut [f32; MR * NR],
) {
    dgrad_tile(w, rows, d, at, acc)
}

/// [`dgrad_tile`] compiled for AVX2.
///
/// # Safety
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[inline(never)]
#[target_feature(enable = "avx2")]
unsafe fn dgrad_tile_avx2(
    w: &[f32],
    rows: &[f32],
    d: &GradRows,
    at: (usize, usize),
    acc: &mut [f32; MR * NR],
) {
    dgrad_tile(w, rows, d, at, acc)
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "Conv2d"
    }

    fn param_count(&self) -> usize {
        self.out_ch * self.in_ch * self.k * self.k + self.out_ch
    }

    fn forward_into(
        &self,
        p: &[f32],
        x: Option<&Tensor>,
        y: &mut Tensor,
        cache: &mut Cache,
        _: bool,
    ) {
        let x = x.expect("Conv2d reads its input");
        self.forward_with(Width::host(), p, x, y, cache);
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
        self.backward_with(Width::host(), p, x, cache, dy, dx, grad_p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::reference;
    use crate::layer::Allocating;
    use crate::testing::{bits, values};

    /// Run `conv.backward` into a zeroed gradient: `(gx, gW ++ gb)`. Also
    /// checks that a pass without the input gradient returns none and the
    /// same parameter gradient, bit for bit. (Conv2d does not read its
    /// output in the backward pass.)
    fn backward(
        conv: &Conv2d,
        p: &[f32],
        x: &Tensor,
        cache: &Cache,
        g: &Tensor,
    ) -> (Tensor, Vec<f32>) {
        let y = Tensor::default();
        let mut gp = vec![0.0; conv.param_count()];
        let gx = conv.backward(p, x, &y, cache, g.clone(), &mut gp, true);
        let mut gp_only = vec![0.0; conv.param_count()];
        assert!(conv
            .backward(p, x, &y, cache, g.clone(), &mut gp_only, false)
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
        let x = Tensor::from_fn(&[1, 1, 3, 3], |_| 1.0);
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
        let g = Tensor::from_fn(y.shape(), |_| 1.0);
        let (gx, gp) = backward(&conv, &p, &x, &c, &g);
        assert_eq!(gx.shape(), x.shape());
        assert_eq!(gp.len(), 3 * 2 * 3 * 3 + 3);
        // bias gradient = number of output pixels per channel per batch
        assert_eq!(gp[3 * 2 * 3 * 3], (2 * 5 * 5) as f32);
    }

    /// Every forward pass keeps the padded planes, so a backward pass after
    /// an inference-mode forward equals one after a training forward.
    #[test]
    fn backward_after_inference_forward_matches_training() {
        let mut rng = crate::rng::seeded(2);
        let p = Conv2d::he(1, 2, 3, 1, &mut rng).params;
        let conv = Conv2d::new(1, 2, 3, 1);
        let x = Tensor::from_fn(&[1, 1, 4, 4], |i| (i % 5) as f32 * 0.2);
        let (y, cache_train) = conv.forward(&p, &x, true);
        let (_, cache_infer) = conv.forward(&p, &x, false);
        let g = Tensor::from_fn(y.shape(), |_| 0.5);
        let (gx_train, gp_train) = backward(&conv, &p, &x, &cache_train, &g);
        let (gx_infer, gp_infer) = backward(&conv, &p, &x, &cache_infer, &g);
        assert_eq!(gx_train.as_slice(), gx_infer.as_slice());
        assert_eq!(gp_train, gp_infer);
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

    /// Oracle forward: per item, `fill(bias)` then the textbook
    /// `reference::matmul_accum(W, col)`, so the oracle shares no compile
    /// with the GEMM under test.
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
            reference::matmul_accum(oc, ohow, ickk, ws, false, &col, false, ob);
        }
        out
    }

    /// Oracle backward over im2col patch matrices, on the textbook
    /// `reference` products: `(gx, gW, gb)`.
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
            reference::matmul_accum(oc, ickk, ohow, gi, false, &col, true, &mut gw);
            let ws = &p[..oc * ickk];
            reference::matmul(ickk, ohow, oc, ws, true, gi, false, &mut gcol);
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

    /// Direct forward (both modes) and all three gradients (after either
    /// forward) equal the im2col + GEMM oracle bit for bit, on shapes that
    /// leave ragged channel and column tiles.
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
                        let (y_inf, cache_inf) = conv.forward(&p, &x, false);
                        let (y_train, cache) = conv.forward(&p, &x, true);
                        assert_eq!(y_inf.shape()[3], ow);
                        assert_bits("forward(infer)", &shape, y_inf.as_slice(), &want);
                        assert_bits("forward(train)", &shape, y_train.as_slice(), &want);

                        let grad = Tensor::from_vec(
                            y_train.shape().to_vec(),
                            values(case + 13, y_train.len()),
                        );
                        for (mode, c) in [("train", &cache), ("infer", &cache_inf)] {
                            assert_backward(&conv, &p, &x, c, &grad, &format!("{shape} {mode}"));
                        }
                    }
                }
            }
        }
        assert!(case > 200, "only {case} shapes ran");

        // A non-finite weight, and upstream gradients of signed zeros only.
        // Together they pin col2im's exact set of terms: a tap whose output
        // position falls outside the output adds nothing to an input pixel,
        // while a product with a stored zero would add NaN there, and an
        // input-gradient chain that skipped its leading `0.0` would keep a
        // −0.0.
        let zeros = |n: usize, sign: usize| -> Vec<f32> {
            (0..n)
                .map(|i| match sign {
                    0 => 0.0,
                    1 => -0.0,
                    _ if i % 3 == 0 => 0.0,
                    _ => -0.0,
                })
                .collect()
        };
        let mut special = 0;
        for (ic, oc, k, pad, side) in [
            (1, 3, 3, 1, 4),
            (2, 5, 3, 1, 5),
            (3, 2, 5, 2, 3),
            (2, 9, 2, 0, 4),
        ] {
            let conv = Conv2d::new(ic, oc, k, pad);
            let nw = oc * ic * k * k;
            let x = Tensor::from_vec(
                vec![2, ic, side, side],
                values(side as u64, 2 * ic * side * side),
            );
            let (y, _) = conv.forward(&[values(1, nw), values(2, oc)].concat(), &x, false);
            for bad in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 1.0] {
                // the first, a middle and the last weight: corner taps whose
                // output position leaves the output at the image's border
                for at in [0, nw / 2, nw - 1] {
                    let mut p = [values(at as u64, nw), values(3, oc)].concat();
                    p[at] = bad;
                    for sign in 0..4 {
                        let grad = if sign == 3 {
                            values(sign as u64 + 17, y.len())
                        } else {
                            zeros(y.len(), sign)
                        };
                        let grad = Tensor::from_vec(y.shape().to_vec(), grad);
                        let shape =
                            format!("oc={oc} ic={ic} k={k} pad={pad} w[{at}]={bad} zeros={sign}");
                        let (y_inf, cache) = conv.forward(&p, &x, false);
                        assert_bits(
                            "forward",
                            &shape,
                            y_inf.as_slice(),
                            &oracle_forward(&conv, &p, &x),
                        );
                        assert_backward(&conv, &p, &x, &cache, &grad, &shape);
                        special += 1;
                    }
                }
            }
        }
        assert_eq!(special, 4 * 4 * 3 * 4);
    }

    /// The backward pass over `cache` equals the im2col + GEMM oracle in
    /// all three gradients, bit for bit.
    fn assert_backward(
        conv: &Conv2d,
        p: &[f32],
        x: &Tensor,
        cache: &Cache,
        grad: &Tensor,
        shape: &str,
    ) {
        let [gx, gw, gb] = oracle_backward(conv, p, x, grad);
        let (dx, dp) = backward(conv, p, x, cache, grad);
        let (dw, db) = dp.split_at(gw.len());
        assert_bits("gx", shape, dx.as_slice(), &gx);
        assert_bits("gW", shape, dw, &gw);
        assert_bits("gb", shape, db, &gb);
    }

    /// Both compiles of the forward tile and of the two backward kernels,
    /// run directly, against the im2col + GEMM oracle on the convolutions of
    /// the scaled and paper FEMNIST CNNs (16×16 images) at 1, 4, 7 and 16
    /// rows: the output and `gx`, `gW` and `gb`, bit for bit.
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
                    let grad = Tensor::from_vec(
                        vec![rows, oc, side, side],
                        values(seed + 3, rows * oc * side * side),
                    );
                    let [gx, gw, gb] = oracle_backward(&conv, &p, &x, &grad);
                    for &simd in &compiles {
                        let shape = format!("{simd:?} ic={ic} oc={oc} side={side} rows={rows}");
                        let (mut y, mut cache) = (Tensor::default(), Cache::default());
                        conv.forward_with(simd, &p, &x, &mut y, &mut cache);
                        assert_bits("forward", &shape, y.as_slice(), &want);
                        let (mut dy, mut dx) = (grad.clone(), Tensor::default());
                        let mut dp = vec![0.0; conv.param_count()];
                        conv.backward_with(
                            simd,
                            &p,
                            &x,
                            &mut cache,
                            &mut dy,
                            Some(&mut dx),
                            &mut dp,
                        );
                        let (dw, db) = dp.split_at(gw.len());
                        assert_bits("gx", &shape, dx.as_slice(), &gx);
                        assert_bits("gW", &shape, dw, &gw);
                        assert_bits("gb", &shape, db, &gb);
                    }
                }
            }
        }
    }
}
