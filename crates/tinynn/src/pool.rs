//! 2-D max pooling.
//!
//! Planes are pooled serially: a layer runs inside a round's per-node
//! worker, where a nested pool region would only fall back to serial after
//! paying its dispatch.

use crate::layer::{Cache, Layer};
use crate::tensor::Tensor;

/// Non-overlapping `k × k` max pooling (stride = k) over `[B, C, H, W]`.
///
/// Trailing rows/columns that do not fill a window are dropped, matching the
/// common "floor" behaviour.
pub struct MaxPool2d {
    k: usize,
}

impl MaxPool2d {
    /// Construct a pool with window (and stride) `k`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "pool window must be >= 1");
        Self { k }
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &'static str {
        "MaxPool2d"
    }

    fn forward(&self, x: &Tensor, _train: bool) -> (Tensor, Cache) {
        assert_eq!(x.rank(), 4, "MaxPool2d expects [B, C, H, W]");
        let (b, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let k = self.k;
        let (oh, ow) = (h / k, w / k);
        let xs = x.as_slice();
        let plane = h * w;
        let oplane = oh * ow;
        let mut out = vec![0.0f32; b * c * oplane];
        let mut argmax = vec![0u32; b * c * oplane];
        let planes = out.chunks_mut(oplane).zip(argmax.chunks_mut(oplane));
        for (pc, (ob, ab)) in planes.enumerate() {
            // pc indexes the (batch, channel) plane
            let xp = &xs[pc * plane..(pc + 1) * plane];
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut besti = 0usize;
                    for ky in 0..k {
                        for kx in 0..k {
                            let idx = (oy * k + ky) * w + ox * k + kx;
                            if xp[idx] > best {
                                best = xp[idx];
                                besti = idx;
                            }
                        }
                    }
                    ob[oy * ow + ox] = best;
                    ab[oy * ow + ox] = besti as u32;
                }
            }
        }
        (
            Tensor::from_vec(vec![b, c, oh, ow], out),
            Cache::new(argmax),
        )
    }

    fn backward(&self, x: &Tensor, cache: &Cache, grad_out: &Tensor) -> (Tensor, Vec<Tensor>) {
        let (b, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let k = self.k;
        let (oh, ow) = (h / k, w / k);
        let argmax = cache.get::<Vec<u32>>();
        let plane = h * w;
        let oplane = oh * ow;
        let gs = grad_out.as_slice();
        let mut gx = vec![0.0f32; b * c * plane];
        for (pc, gp) in gx.chunks_mut(plane).enumerate() {
            let gob = &gs[pc * oplane..(pc + 1) * oplane];
            let ab = &argmax[pc * oplane..(pc + 1) * oplane];
            for (g, &ai) in gob.iter().zip(ab) {
                gp[ai as usize] += g;
            }
        }
        (Tensor::from_vec(x.shape().to_vec(), gx), Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_2x2_takes_max() {
        let x = Tensor::from_vec(vec![1, 1, 2, 4], vec![1., 5., 2., 0., 3., 4., 1., 9.]);
        let p = MaxPool2d::new(2);
        let (y, _) = p.forward(&x, false);
        assert_eq!(y.shape(), &[1, 1, 1, 2]);
        assert_eq!(y.as_slice(), &[5., 9.]);
    }

    #[test]
    fn backward_routes_to_argmax() {
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1., 5., 2., 0.]);
        let p = MaxPool2d::new(2);
        let (_, c) = p.forward(&x, true);
        let g = Tensor::from_vec(vec![1, 1, 1, 1], vec![3.0]);
        let (gx, gp) = p.backward(&x, &c, &g);
        assert_eq!(gx.as_slice(), &[0., 3., 0., 0.]);
        assert!(gp.is_empty());
    }

    #[test]
    fn odd_sizes_floor() {
        let x = Tensor::from_fn(&[1, 1, 5, 5], |i| i as f32);
        let p = MaxPool2d::new(2);
        let (y, _) = p.forward(&x, false);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
    }

    #[test]
    fn multi_channel_planes_independent() {
        let x = Tensor::from_vec(vec![1, 2, 2, 2], vec![1., 2., 3., 4., 8., 7., 6., 5.]);
        let p = MaxPool2d::new(2);
        let (y, _) = p.forward(&x, false);
        assert_eq!(y.as_slice(), &[4., 8.]);
    }
}
