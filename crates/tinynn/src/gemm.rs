//! Blocked, packed GEMM: the single matmul kernel behind every tinynn
//! layer's matrix products. The one exception is the convolution forward
//! pass, a direct register-tiled kernel in [`crate::conv`] that keeps this
//! kernel's accumulation chain bit for bit; the convolution backward pass
//! runs here.
//!
//! One code path serves the plain (`A·B`), A-transposed (`Aᵀ·B`) and
//! B-transposed (`A·Bᵀ`) products: the transpose flags only change how
//! operands are *packed*, never how the inner kernel runs. The loop nest is
//! the classic three-level cache blocking (BLIS/GotoBLAS shape):
//!
//! - `NC`-wide column slabs of the output (L3-ish),
//! - `KC`-deep slices of the shared dimension, with the corresponding
//!   `KC × NC` slab of B packed once into k-major panels of `NR` columns,
//! - `MC`-tall row blocks, with the `MC × KC` slab of A packed into k-major
//!   panels of `MR` rows (L2-ish),
//! - an `MR × NR` register-tile microkernel written so the autovectorizer
//!   turns the `NR`-wide inner loop into SIMD lanes.
//!
//! **Vector width.** One microkernel source, two compiles, picked once per
//! process ([`crate::kernel_width`] names it): `microkernel_plain` for the
//! target's baseline features (SSE2 on x86-64: one `NR`-wide row is two
//! 4-lane registers) and `microkernel_avx2` (one 8-lane register per row).
//! Both stay out of line, and both are bit-identical to the reference
//! below.
//!
//! **Determinism.** Every output element accumulates its `k` products in
//! strictly ascending order: the `KC` blocks advance in ascending `k` and the
//! microkernel loads the partially-accumulated tile from `out`, adds the
//! block's products in ascending `k`, and stores it back. Rust/LLVM does not
//! contract `a*b + c` into an FMA or reassociate float adds without explicit
//! fast-math, so the blocked kernel is **bit-identical** to the scalar
//! textbook loop (`acc = 0; for p { acc += a[i][p] * b[p][j] }`) retained in
//! the `reference` module below, in either compile. The differential
//! proptests in `tests/properties.rs` pin this for the compile the host
//! runs; `dispatch_compiles_match_reference_bitwise` runs both.
//!
//! **Parallelism.** Large products split the output into `MC`-row blocks
//! dispatched on the rayon pool; each block owns a disjoint slice of `out`,
//! so the result is independent of thread count and scheduling. Small
//! products (below [`PAR_GEMM_THRESHOLD`] multiply-adds) stay serial —
//! training-sized GEMMs are left serial because they already run inside a
//! round's per-node `par_iter`, which owns the cores. A serial product
//! packs into its thread's reused buffers; the parallel branch allocates
//! its own, so no buffer is held while a pool worker could start another
//! product.

use crate::simd::Width;
use rayon::prelude::*;
use std::cell::RefCell;

/// Row-block height packed per A panel set (also the parallel grain).
pub const MC: usize = 64;
/// Depth of one packed slice of the shared dimension.
pub const KC: usize = 256;
/// Column-slab width packed per B panel set.
pub const NC: usize = 128;
/// Microkernel register-tile rows.
pub const MR: usize = 4;
/// Microkernel register-tile columns: one AVX2 register of `f32`, or two
/// SSE registers in the baseline compile.
pub const NR: usize = 8;

/// Minimum `m·n·k` multiply-adds before row blocks go to the thread pool.
///
/// Kept at 64³ so evaluation-sized products parallelize while training
/// GEMMs stay serial: those run inside a round's per-node `par_iter`, where
/// a nested pool region would serialize anyway, and staying below the
/// threshold also skips the dispatch cost.
pub const PAR_GEMM_THRESHOLD: usize = 64 * 64 * 64;

/// A logical `rows × cols` operand over row-major storage; `trans` means the
/// storage is the transpose (`cols × rows`) and indexing swaps.
#[derive(Clone, Copy)]
struct MatRef<'a> {
    data: &'a [f32],
    rows: usize,
    cols: usize,
    trans: bool,
}

impl<'a> MatRef<'a> {
    fn new(data: &'a [f32], rows: usize, cols: usize, trans: bool) -> Self {
        debug_assert_eq!(data.len(), rows * cols);
        MatRef {
            data,
            rows,
            cols,
            trans,
        }
    }

    #[inline(always)]
    fn at(&self, r: usize, c: usize) -> f32 {
        if self.trans {
            self.data[c * self.rows + r]
        } else {
            self.data[r * self.cols + c]
        }
    }
}

#[inline(always)]
fn ceil_div(a: usize, b: usize) -> usize {
    a.div_ceil(b)
}

/// Pack the `kc × nc` slab of B starting at `(pc, jc)` into k-major panels
/// of `NR` columns, zero-padding the ragged last panel.
fn pack_b(b: &MatRef<'_>, pc: usize, jc: usize, kc: usize, nc: usize, bpack: &mut Vec<f32>) {
    let panels = ceil_div(nc, NR);
    bpack.clear();
    bpack.resize(panels * kc * NR, 0.0);
    for panel in 0..panels {
        let j0 = panel * NR;
        let width = NR.min(nc - j0);
        let dst = &mut bpack[panel * kc * NR..(panel + 1) * kc * NR];
        for p in 0..kc {
            for c in 0..width {
                dst[p * NR + c] = b.at(pc + p, jc + j0 + c);
            }
        }
    }
}

/// Pack the `mc × kc` slab of A starting at `(ic, pc)` into k-major panels
/// of `MR` rows, zero-padding the ragged last panel.
fn pack_a(a: &MatRef<'_>, ic: usize, pc: usize, mc: usize, kc: usize, apack: &mut Vec<f32>) {
    let panels = ceil_div(mc, MR);
    apack.clear();
    apack.resize(panels * kc * MR, 0.0);
    for panel in 0..panels {
        let i0 = panel * MR;
        let height = MR.min(mc - i0);
        let dst = &mut apack[panel * kc * MR..(panel + 1) * kc * MR];
        for p in 0..kc {
            for r in 0..height {
                dst[p * MR + r] = a.at(ic + i0 + r, pc + p);
            }
        }
    }
}

/// `MR × NR` register tile: `c[r][j] += Σ_p ap[p][r] · bp[p][j]`, ascending
/// `p`. The `NR`-wide inner loop is the autovectorizer target; each output
/// lane keeps its own serial accumulation chain, so no reassociation occurs.
/// The body of both compiles ([`microkernel_plain`], [`microkernel_avx2`]),
/// which stay out of line: inlined into the tile loop of
/// [`process_row_block`], LLVM leaves the AVX2 compile scalar and small
/// products run about 2× slower.
#[inline(always)]
fn microkernel(kc: usize, ap: &[f32], bp: &[f32], c: &mut [f32; MR * NR]) {
    debug_assert!(ap.len() >= kc * MR);
    debug_assert!(bp.len() >= kc * NR);
    for p in 0..kc {
        let a = &ap[p * MR..p * MR + MR];
        let b = &bp[p * NR..p * NR + NR];
        for r in 0..MR {
            let ar = a[r];
            let row = &mut c[r * NR..r * NR + NR];
            for (cv, &bv) in row.iter_mut().zip(b) {
                *cv += ar * bv;
            }
        }
    }
}

/// [`microkernel`] for the target's baseline features.
#[inline(never)]
fn microkernel_plain(kc: usize, ap: &[f32], bp: &[f32], c: &mut [f32; MR * NR]) {
    microkernel(kc, ap, bp, c)
}

/// [`microkernel`] compiled for AVX2.
///
/// # Safety
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[inline(never)]
#[target_feature(enable = "avx2")]
unsafe fn microkernel_avx2(kc: usize, ap: &[f32], bp: &[f32], c: &mut [f32; MR * NR]) {
    microkernel(kc, ap, bp, c)
}

/// Process one `mc`-row block of the output against the packed B slab:
/// pack the block's A panels, then run the microkernel of `width`'s
/// compile over every tile, loading and storing partially-accumulated
/// output values.
#[allow(clippy::too_many_arguments)]
fn process_row_block(
    simd: Width,
    a: &MatRef<'_>,
    out_rows: &mut [f32],
    n: usize,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    bpack: &[f32],
    apack: &mut Vec<f32>,
) {
    pack_a(a, ic, pc, mc, kc, apack);
    let b_panels = ceil_div(nc, NR);
    let a_panels = ceil_div(mc, MR);
    let mut tile = [0.0f32; MR * NR];
    for bp_idx in 0..b_panels {
        let j0 = bp_idx * NR;
        let width = NR.min(nc - j0);
        let bp = &bpack[bp_idx * kc * NR..(bp_idx + 1) * kc * NR];
        for ap_idx in 0..a_panels {
            let i0 = ap_idx * MR;
            let height = MR.min(mc - i0);
            let ap = &apack[ap_idx * kc * MR..(ap_idx + 1) * kc * MR];
            // Load the partial accumulators for this tile (zero-padded at
            // the ragged edges so padded lanes never touch real output).
            tile.fill(0.0);
            for r in 0..height {
                let src = &out_rows[(i0 + r) * n + jc + j0..(i0 + r) * n + jc + j0 + width];
                tile[r * NR..r * NR + width].copy_from_slice(src);
            }
            match simd.avx2() {
                // SAFETY: a `Width` says AVX2 only on a host that has it.
                #[cfg(target_arch = "x86_64")]
                true => unsafe { microkernel_avx2(kc, ap, bp, &mut tile) },
                _ => microkernel_plain(kc, ap, bp, &mut tile),
            }
            for r in 0..height {
                let dst = &mut out_rows[(i0 + r) * n + jc + j0..(i0 + r) * n + jc + j0 + width];
                dst.copy_from_slice(&tile[r * NR..r * NR + width]);
            }
        }
    }
}

/// Single-entry blocked/packed GEMM: `out[m×n] = op(A) · op(B)` where
/// `op(X)` is `Xᵀ` when the matching flag is set. `a` holds `m×k` values
/// (`k×m` when `ta`), `b` holds `k×n` (`n×k` when `tb`); `out` is
/// overwritten. Bit-identical to [`reference::matmul`] for every shape and
/// flag combination, and to itself at any thread count.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    ta: bool,
    b: &[f32],
    tb: bool,
    out: &mut [f32],
) {
    out.fill(0.0);
    gemm_accum(m, n, k, a, ta, b, tb, out);
}

/// Like [`gemm`] but accumulating: `out += op(A) · op(B)`. Each output
/// element's chain starts from its existing value and adds the `k` products
/// in ascending order, so `fill(bias)` followed by `gemm_accum` reproduces
/// the classic `acc = bias; acc += …` loop bit-for-bit.
#[allow(clippy::too_many_arguments)]
pub fn gemm_accum(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    ta: bool,
    b: &[f32],
    tb: bool,
    out: &mut [f32],
) {
    gemm_accum_with(Width::host(), m, n, k, a, ta, b, tb, out);
}

/// [`gemm_accum`] on the microkernel of `simd`'s compile.
#[allow(clippy::too_many_arguments)]
fn gemm_accum_with(
    simd: Width,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    ta: bool,
    b: &[f32],
    tb: bool,
    out: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "gemm: A storage is not m*k = {m}*{k}");
    assert_eq!(b.len(), k * n, "gemm: B storage is not k*n = {k}*{n}");
    assert_eq!(
        out.len(),
        m * n,
        "gemm: output storage is not m*n = {m}*{n}"
    );
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let a = if ta {
        MatRef::new(a, m, k, true)
    } else {
        MatRef::new(a, m, k, false)
    };
    let b = if tb {
        MatRef::new(b, k, n, true)
    } else {
        MatRef::new(b, k, n, false)
    };
    let parallel = m > MC && m * n * k >= PAR_GEMM_THRESHOLD;
    let mut run = |apack: &mut Vec<f32>, bpack: &mut Vec<f32>| {
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                pack_b(&b, pc, jc, kc, nc, bpack);
                if parallel {
                    let bp = &*bpack;
                    let a_ref = &a;
                    out.par_chunks_mut(MC * n)
                        .enumerate()
                        .for_each(|(blk, rows)| {
                            let ic = blk * MC;
                            let mc = rows.len() / n;
                            let mut apack = Vec::new();
                            process_row_block(
                                simd, a_ref, rows, n, ic, mc, pc, kc, jc, nc, bp, &mut apack,
                            );
                        });
                } else {
                    for (blk, rows) in out.chunks_mut(MC * n).enumerate() {
                        let ic = blk * MC;
                        let mc = rows.len() / n;
                        process_row_block(simd, &a, rows, n, ic, mc, pc, kc, jc, nc, bpack, apack);
                    }
                }
            }
        }
    };
    if parallel {
        // A pool worker may start another product while this one waits,
        // so the parallel branch holds none of its thread's buffers.
        run(&mut Vec::new(), &mut Vec::new());
    } else {
        // The serial loop calls nothing that could start another product.
        PACKS.with_borrow_mut(|(apack, bpack)| run(apack, bpack));
    }
}

thread_local! {
    /// Pack buffers (`A` panels, `B` panels) of this thread's serial GEMMs:
    /// every pack clears and refills the prefix it uses, so reuse changes
    /// no value, and small products stop paying two allocations each.
    static PACKS: RefCell<(Vec<f32>, Vec<f32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Textbook scalar kernels, retained as the differential-test oracle for the
/// blocked path. Never used on a hot path.
pub mod reference {
    /// `out[m×n] = op(A)·op(B)` via the naive triple loop: for each element,
    /// `acc = 0; acc += a·b` in ascending `k`. The blocked kernel must match
    /// this bit-for-bit.
    #[allow(clippy::too_many_arguments)]
    pub fn matmul(
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        ta: bool,
        b: &[f32],
        tb: bool,
        out: &mut [f32],
    ) {
        assert_eq!(a.len(), m * k);
        assert_eq!(b.len(), k * n);
        assert_eq!(out.len(), m * n);
        let at = |r: usize, c: usize| if ta { a[c * m + r] } else { a[r * k + c] };
        let bt = |r: usize, c: usize| if tb { b[c * k + r] } else { b[r * n + c] };
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += at(i, p) * bt(p, j);
                }
                out[i * n + j] = acc;
            }
        }
    }

    /// Accumulating variant: `out[i][j] += Σ_p a·b` with the chain starting
    /// from the existing `out` value, matching [`super::gemm_accum`].
    #[allow(clippy::too_many_arguments)]
    pub fn matmul_accum(
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        ta: bool,
        b: &[f32],
        tb: bool,
        out: &mut [f32],
    ) {
        assert_eq!(a.len(), m * k);
        assert_eq!(b.len(), k * n);
        assert_eq!(out.len(), m * n);
        let at = |r: usize, c: usize| if ta { a[c * m + r] } else { a[r * k + c] };
        let bt = |r: usize, c: usize| if tb { b[c * k + r] } else { b[r * n + c] };
        for i in 0..m {
            for j in 0..n {
                let mut acc = out[i * n + j];
                for p in 0..k {
                    acc += at(i, p) * bt(p, j);
                }
                out[i * n + j] = acc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(seed: u64, len: usize) -> Vec<f32> {
        // Small deterministic LCG; values in roughly [-1, 1].
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as i32 as f32) / (i32::MAX as f32)
            })
            .collect()
    }

    fn check(m: usize, n: usize, k: usize, ta: bool, tb: bool) {
        let a = fill(m as u64 * 31 + k as u64, m * k);
        let b = fill(n as u64 * 17 + k as u64 + 7, k * n);
        let mut blocked = vec![f32::NAN; m * n];
        let mut naive = vec![f32::NAN; m * n];
        gemm(m, n, k, &a, ta, &b, tb, &mut blocked);
        reference::matmul(m, n, k, &a, ta, &b, tb, &mut naive);
        for (i, (x, y)) in blocked.iter().zip(&naive).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "element {i} differs for {m}x{n}x{k} ta={ta} tb={tb}: {x} vs {y}"
            );
        }
    }

    /// `(m, n, k)` shapes: whole, ragged and multi-block tiles and slabs.
    const SHAPES: [(usize, usize, usize); 8] = [
        (1, 1, 1),
        (3, 5, 7),
        (MR, NR, KC),
        (MR + 1, NR + 3, KC + 5),
        (MC + 7, NC + 9, KC + 11),
        (130, 2, 300),
        (2, 130, 300),
        (65, 129, 257),
    ];

    /// The three transpose cases: plain, A-transposed, B-transposed.
    const TRANSPOSES: [(bool, bool); 3] = [(false, false), (true, false), (false, true)];

    #[test]
    fn blocked_matches_naive_bitwise_across_shapes() {
        for &(m, n, k) in &SHAPES {
            for &(ta, tb) in &TRANSPOSES {
                check(m, n, k, ta, tb);
            }
        }
    }

    #[test]
    fn empty_dims_yield_zero_filled_or_empty_output() {
        let mut out = vec![f32::NAN; 6];
        gemm(2, 3, 0, &[], false, &[], false, &mut out);
        assert!(out.iter().all(|&x| x == 0.0));
        let mut empty: Vec<f32> = Vec::new();
        gemm(0, 0, 4, &[], false, &[], false, &mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn accumulate_extends_the_chain_from_existing_values() {
        let (m, n, k) = (9, 11, 13);
        let a = fill(3, m * k);
        let b = fill(5, k * n);
        let bias = fill(7, m * n);
        let mut blocked = bias.clone();
        let mut naive = bias.clone();
        gemm_accum(m, n, k, &a, false, &b, false, &mut blocked);
        reference::matmul_accum(m, n, k, &a, false, &b, false, &mut naive);
        for (x, y) in blocked.iter().zip(&naive) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// Parallel-branch, tiny, transposed, ragged and multi-slab shapes, in
    /// the order one thread alternates them.
    const REUSE_SHAPES: [(usize, usize, usize); 9] = [
        (3 * MC + 1, 96, 100),
        (1, 1, 1),
        (7, 16, 8),
        (MC + 7, NC + 9, KC + 11),
        (2, 3, 1),
        (3 * MC + 1, 96, 100),
        (5, NR + 1, 3),
        (1, 2 * NC + 1, 2 * KC + 1),
        (7, 4, 16),
    ];

    /// One thread alternates parallel-branch, tiny, transposed, ragged and
    /// multi-slab products, plain and accumulating: a pack buffer that
    /// kept a longer previous product's values, or came back short, would
    /// show up as a bit difference against the reference.
    #[test]
    fn gemm_pack_reuse_alternating_shapes_match_reference_bitwise() {
        for round in 0..3u64 {
            for (i, &(m, n, k)) in REUSE_SHAPES.iter().enumerate() {
                let (ta, tb) = TRANSPOSES[(i + round as usize) % 3];
                let seed = round * 100 + i as u64;
                let a = fill(seed, m * k);
                let b = fill(seed + 50, k * n);
                let mut got = vec![f32::NAN; m * n];
                let mut want = vec![f32::NAN; m * n];
                gemm(m, n, k, &a, ta, &b, tb, &mut got);
                reference::matmul(m, n, k, &a, ta, &b, tb, &mut want);
                let what = format!("{m}x{n}x{k} ta={ta} tb={tb} round {round}");
                assert_eq!(bits(&got), bits(&want), "gemm {what}");
                let init = fill(seed + 77, m * n);
                let (mut got, mut want) = (init.clone(), init);
                gemm_accum(m, n, k, &a, ta, &b, tb, &mut got);
                reference::matmul_accum(m, n, k, &a, ta, &b, tb, &mut want);
                assert_eq!(bits(&got), bits(&want), "gemm_accum {what}");
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Both compiles of the microkernel, run directly, against the
    /// reference on every shape and transpose case of the two tests above,
    /// plain and accumulating, bit for bit.
    #[test]
    fn dispatch_compiles_match_reference_bitwise() {
        let compiles = crate::simd::compiles_on_host("gemm dispatch differential");
        for (i, &(m, n, k)) in SHAPES.iter().chain(&REUSE_SHAPES).enumerate() {
            for &(ta, tb) in &TRANSPOSES {
                let seed = 1000 + i as u64;
                let a = fill(seed, m * k);
                let b = fill(seed + 50, k * n);
                let init = fill(seed + 77, m * n);
                let mut want = vec![f32::NAN; m * n];
                reference::matmul(m, n, k, &a, ta, &b, tb, &mut want);
                let mut want_accum = init.clone();
                reference::matmul_accum(m, n, k, &a, ta, &b, tb, &mut want_accum);
                for &simd in &compiles {
                    let what = format!("{simd:?} {m}x{n}x{k} ta={ta} tb={tb}");
                    let mut got = vec![0.0; m * n];
                    gemm_accum_with(simd, m, n, k, &a, ta, &b, tb, &mut got);
                    assert_eq!(bits(&got), bits(&want), "gemm {what}");
                    let mut got = init.clone();
                    gemm_accum_with(simd, m, n, k, &a, ta, &b, tb, &mut got);
                    assert_eq!(bits(&got), bits(&want_accum), "gemm_accum {what}");
                }
            }
        }
    }

    #[test]
    fn parallel_sized_product_matches_naive_bitwise() {
        // Above PAR_GEMM_THRESHOLD with m > MC: exercises the pooled path.
        check(3 * MC + 1, 96, 100, false, false);
        check(3 * MC + 1, 96, 100, true, false);
        check(3 * MC + 1, 96, 100, false, true);
    }
}
