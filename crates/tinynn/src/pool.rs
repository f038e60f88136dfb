//! 2-D max pooling.
//!
//! Each window's max is a chain of selects, not branches: the winner of a
//! window is data the branch predictor cannot learn. A training forward
//! pass also keeps the argmax of every window (the first index holding the
//! max wins a tie) in [`Cache::indices`] for the backward pass to route the
//! gradient through; an inference pass skips it and empties that buffer,
//! so a backward pass can never read an argmax of another batch.
//!
//! The output and the input gradient are the caller's buffers (see
//! [`crate::layer`]); the input gradient is zeroed before the routed
//! gradients are added into it.
//!
//! Planes are pooled serially: a layer runs inside a round's per-node
//! worker, where a nested pool region would only fall back to serial after
//! paying its dispatch.

use crate::layer::{Cache, Layer};
use crate::tensor::Tensor;
use crate::workspace::fit;

/// Non-overlapping `k × k` max pooling (stride = k) over `[B, C, H, W]`.
///
/// Trailing rows/columns that do not fill a window are dropped, matching the
/// common "floor" behaviour.
pub(crate) struct MaxPool2d {
    k: usize,
}

impl MaxPool2d {
    /// Construct a pool with window (and stride) `k`.
    pub(crate) fn new(k: usize) -> Self {
        assert!(k >= 1, "pool window must be >= 1");
        Self { k }
    }
}

/// The pooling kernel over every `[H, W]` plane of `x` into `y`, with
/// each window's argmax (a plane index) into `argmax` when it is given,
/// for a window side of `K`, or of `k` when `K` is 0. The 2 × 2 window
/// every model in this workspace uses runs with the side as a constant,
/// fully unrolled: ≈ 3× faster than the same code reading `k` at run time.
fn pool_planes<const K: usize>(
    x: &Tensor,
    k: usize,
    y: &mut Tensor,
    argmax: Option<&mut Vec<u32>>,
) {
    let k = if K == 0 { k } else { K };
    let (b, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let (oh, ow) = (h / k, w / k);
    let out = y.resize([b, c, oh, ow]);
    let mut argmax = argmax.map(|a| fit(a, out.len()));
    for (pc, xp) in x.as_slice().chunks_exact(h * w).enumerate() {
        let ob = &mut out[pc * oh * ow..(pc + 1) * oh * ow];
        let mut ab = argmax
            .as_deref_mut()
            .map(|a| &mut a[pc * oh * ow..(pc + 1) * oh * ow]);
        for oy in 0..oh {
            for ox in 0..ow {
                let (best, at) = window::<K>(xp, oy * k * w + ox * k, w, k);
                ob[oy * ow + ox] = best;
                if let Some(ab) = ab.as_deref_mut() {
                    ab[oy * ow + ox] = at as u32;
                }
            }
        }
    }
}

/// Max and argmax of the `k × k` window (`K × K` unless `K` is 0) of plane
/// `xp` (row length `w`) whose top-left pixel is `first`. The max starts at
/// `-∞` and the argmax at `first`, so a window with no value above `-∞`
/// (all NaN or all `-∞`) pools to `-∞` and routes its gradient to its own
/// first pixel.
#[inline(always)]
fn window<const K: usize>(xp: &[f32], first: usize, w: usize, k: usize) -> (f32, usize) {
    let k = if K == 0 { k } else { K };
    let mut best = f32::NEG_INFINITY;
    let mut besti = first;
    for ky in 0..k {
        let row = first + ky * w;
        for (idx, &v) in (row..).zip(&xp[row..row + k]) {
            let gt = v > best;
            best = if gt { v } else { best };
            besti = if gt { idx } else { besti };
        }
    }
    (best, besti)
}

impl Layer for MaxPool2d {
    fn name(&self) -> &'static str {
        "MaxPool2d"
    }

    fn forward_into(
        &self,
        _: &[f32],
        x: Option<&Tensor>,
        y: &mut Tensor,
        cache: &mut Cache,
        train: bool,
    ) {
        let x = x.expect("MaxPool2d reads its input");
        assert_eq!(x.rank(), 4, "MaxPool2d expects [B, C, H, W]");
        assert!(
            x.shape()[2] >= self.k && x.shape()[3] >= self.k,
            "MaxPool2d input smaller than its window"
        );
        if !train {
            cache.indices.clear();
        }
        let argmax = train.then_some(&mut cache.indices);
        match self.k {
            2 => pool_planes::<2>(x, 2, y, argmax),
            k => pool_planes::<0>(x, k, y, argmax),
        }
    }

    fn backward_into(
        &self,
        _: &[f32],
        x: &Tensor,
        _: &Tensor,
        cache: &mut Cache,
        dy: &mut Tensor,
        dx: Option<&mut Tensor>,
        _: &mut [f32],
    ) {
        let Some(dx) = dx else { return };
        let argmax = &cache.indices;
        assert_eq!(
            argmax.len(),
            dy.len(),
            "MaxPool2d: backward needs the argmax of a training forward pass"
        );
        let (h, w) = (x.shape()[2], x.shape()[3]);
        let oplane = (h / self.k) * (w / self.k);
        let gx = dx.resize_zeroed(x.shape());
        let routes = dy
            .as_slice()
            .chunks_exact(oplane)
            .zip(argmax.chunks_exact(oplane));
        for (gp, (gob, ab)) in gx.chunks_exact_mut(h * w).zip(routes) {
            for (g, &ai) in gob.iter().zip(ab) {
                gp[ai as usize] += g;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Allocating;

    #[test]
    fn pool_2x2_takes_max() {
        let x = Tensor::from_vec(vec![1, 1, 2, 4], vec![1., 5., 2., 0., 3., 4., 1., 9.]);
        let p = MaxPool2d::new(2);
        let (y, _) = p.forward(&[], &x, false);
        assert_eq!(y.shape(), &[1, 1, 1, 2]);
        assert_eq!(y.as_slice(), &[5., 9.]);
    }

    #[test]
    fn backward_routes_to_argmax() {
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1., 5., 2., 0.]);
        let p = MaxPool2d::new(2);
        let (y, c) = p.forward(&[], &x, true);
        let g = Tensor::from_vec(vec![1, 1, 1, 1], vec![3.0]);
        let gx = p.backward(&[], &x, &y, &c, g, &mut [], true).unwrap();
        assert_eq!(gx.as_slice(), &[0., 3., 0., 0.]);
    }

    /// An all-NaN and an all-`-∞` window pool to `-∞` and route their
    /// gradient to their own first pixel, not to pixel 0 of the plane.
    #[test]
    fn nan_window_routes_gradient_to_its_own_first_pixel() {
        let (nan, ninf) = (f32::NAN, f32::NEG_INFINITY);
        #[rustfmt::skip]
        let x = Tensor::from_vec(vec![1, 1, 2, 6], vec![
            1., 5., nan, nan, ninf, ninf,
            2., 0., nan, nan, ninf, ninf,
        ]);
        let p = MaxPool2d::new(2);
        let (y, c) = p.forward(&[], &x, true);
        assert_eq!(y.as_slice(), &[5., ninf, ninf]);
        assert_eq!(c.indices, [1, 2, 4]);
        let g = Tensor::from_vec(vec![1, 1, 1, 3], vec![1., 2., 3.]);
        let gx = p.backward(&[], &x, &y, &c, g, &mut [], true).unwrap();
        assert_eq!(
            gx.as_slice(),
            &[0., 1., 2., 0., 3., 0., 0., 0., 0., 0., 0., 0.]
        );
    }

    /// The branchy pooling loop the select kernel replaced, kept as its
    /// oracle (with the argmax starting at the window's first pixel, not at
    /// pixel 0 of the plane): values and argmax indices.
    fn branchy_pool(x: &Tensor, k: usize) -> (Vec<f32>, Vec<u32>) {
        let (h, w) = (x.shape()[2], x.shape()[3]);
        let (mut out, mut argmax) = (Vec::new(), Vec::new());
        for xp in x.as_slice().chunks(h * w) {
            for oy in 0..h / k {
                for ox in 0..w / k {
                    let mut best = f32::NEG_INFINITY;
                    let mut besti = oy * k * w + ox * k;
                    for ky in 0..k {
                        for kx in 0..k {
                            let idx = (oy * k + ky) * w + ox * k + kx;
                            if xp[idx] > best {
                                best = xp[idx];
                                besti = idx;
                            }
                        }
                    }
                    out.push(best);
                    argmax.push(besti as u32);
                }
            }
        }
        (out, argmax)
    }

    /// Forward (both modes), argmax and backward equal the branchy oracle
    /// bit for bit, on odd and even sides, k ∈ {1, 2, 3}, and planes full
    /// of ±0.0, NaN, ±∞ and ties; an inference pass keeps no argmax.
    #[test]
    fn maxpool_matches_branchy_oracle_bitwise() {
        use crate::testing::{bits, special_values};
        let (mut case, mut ties, mut empty) = (0u64, 0, 0);
        for k in 1..=3 {
            for h in k..=k + 4 {
                for w in [k, k + 3, 9] {
                    case += 1;
                    let (b, c) = (1 + case as usize % 2, 1 + case as usize % 3);
                    let shape = vec![b, c, h, w];
                    let x = Tensor::from_vec(shape.clone(), special_values(case, b * c * h * w));
                    let (want, want_arg) = branchy_pool(&x, k);
                    let what = format!("k={k} {shape:?}");
                    let p = MaxPool2d::new(k);
                    let (y_inf, c_inf) = p.forward(&[], &x, false);
                    let (y, cache) = p.forward(&[], &x, true);
                    assert_eq!(y.shape(), &[b, c, h / k, w / k], "{what}");
                    assert_eq!(
                        bits(y_inf.as_slice()),
                        bits(&want),
                        "forward(infer), {what}"
                    );
                    assert_eq!(bits(y.as_slice()), bits(&want), "forward(train), {what}");
                    assert!(c_inf.indices.is_empty(), "{what}");
                    assert_eq!(cache.indices, want_arg, "argmax, {what}");

                    let dy =
                        Tensor::from_vec(y.shape().to_vec(), special_values(case + 99, y.len()));
                    let mut want_g = vec![0.0f32; x.len()];
                    let routes = dy.as_slice().iter().zip(&want_arg);
                    for (i, (&g, &ai)) in routes.enumerate() {
                        want_g[i / ((h / k) * (w / k)) * h * w + ai as usize] += g;
                    }
                    let gx = p.backward(&[], &x, &y, &cache, dy.clone(), &mut [], true);
                    let gx = gx.expect("input gradient asked for");
                    assert_eq!(gx.shape(), x.shape(), "{what}");
                    assert_eq!(bits(gx.as_slice()), bits(&want_g), "backward, {what}");
                    assert!(p
                        .backward(&[], &x, &y, &cache, dy, &mut [], false)
                        .is_none());

                    // Count the windows that tie or hold no value above -∞.
                    let (oh, ow) = (h / k, w / k);
                    for (pc, xp) in x.as_slice().chunks(h * w).enumerate() {
                        for o in 0..oh * ow {
                            let m = want[pc * oh * ow + o];
                            let first = o / ow * k * w + o % ow * k;
                            let win = (0..k * k).map(|t| xp[first + t / k * w + t % k]);
                            if m == f32::NEG_INFINITY {
                                empty += 1;
                            } else if win.filter(|&v| v == m).count() > 1 {
                                ties += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(
            case >= 45 && ties > 0 && empty > 0,
            "{case} cases, {ties} ties, {empty} empty"
        );
    }

    /// A backward pass after an inference forward finds no argmax and
    /// stops, instead of routing through another batch's.
    #[test]
    #[should_panic(expected = "argmax of a training forward")]
    fn backward_after_inference_forward_panics() {
        let x = Tensor::from_fn(&[1, 1, 4, 4], |i| i as f32);
        let p = MaxPool2d::new(2);
        let (mut cache, mut y) = (Cache::default(), Tensor::default());
        p.forward_into(&[], Some(&x), &mut y, &mut cache, true);
        p.forward_into(&[], Some(&x), &mut y, &mut cache, false);
        let (mut dy, mut dx) = (Tensor::zeros(y.shape()), Tensor::default());
        p.backward_into(&[], &x, &y, &mut cache, &mut dy, Some(&mut dx), &mut []);
    }

    #[test]
    fn odd_sizes_floor() {
        let x = Tensor::from_fn(&[1, 1, 5, 5], |i| i as f32);
        let p = MaxPool2d::new(2);
        let (y, _) = p.forward(&[], &x, false);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
    }

    #[test]
    fn multi_channel_planes_independent() {
        let x = Tensor::from_vec(vec![1, 2, 2, 2], vec![1., 2., 3., 4., 8., 7., 6., 5.]);
        let p = MaxPool2d::new(2);
        let (y, _) = p.forward(&[], &x, false);
        assert_eq!(y.as_slice(), &[4., 8.]);
    }
}
