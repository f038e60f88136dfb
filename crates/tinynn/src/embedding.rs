//! Token embedding lookup.

use crate::init;
use crate::layer::{Cache, Layer, LayerInit};
use crate::tensor::Tensor;
use rand::Rng;

/// Embedding lookup: maps `[B, T]` token ids (stored as `f32` values that
/// must be exact small integers) to `[B, T, dim]` vectors.
///
/// The one parameter is the `[vocab, dim]` table. The gradient w.r.t. the
/// input is defined as zero (ids are not differentiable); the gradient
/// w.r.t. the table is a scatter-add.
pub(crate) struct Embedding {
    vocab: usize,
    dim: usize,
}

impl Embedding {
    /// A `vocab × dim` lookup (architecture only).
    pub(crate) fn new(vocab: usize, dim: usize) -> Self {
        Self { vocab, dim }
    }

    /// Normal-initialized table with std `0.1` (small enough to keep the
    /// first LSTM steps in the linear regime).
    pub(crate) fn init(vocab: usize, dim: usize, rng: &mut impl Rng) -> LayerInit {
        LayerInit::new(
            Self::new(vocab, dim),
            &[init::normal(&[vocab, dim], 0.1, rng)],
        )
    }

    #[inline]
    fn token(&self, v: f32) -> usize {
        let id = v as usize;
        debug_assert!(
            (id as f32 - v).abs() < 1e-3 && id < self.vocab,
            "embedding input {v} is not a valid token id (vocab {})",
            self.vocab
        );
        id.min(self.vocab - 1)
    }
}

impl Layer for Embedding {
    fn name(&self) -> &'static str {
        "Embedding"
    }

    fn param_count(&self) -> usize {
        self.vocab * self.dim
    }

    fn forward_into(&self, p: &[f32], x: Option<&Tensor>, y: &mut Tensor, _: &mut Cache, _: bool) {
        let x = x.expect("Embedding reads its input");
        let d = self.dim;
        let out = y.resize(x.shape().iter().copied().chain([d]));
        for (&v, row) in x.as_slice().iter().zip(out.chunks_exact_mut(d)) {
            let id = self.token(v);
            row.copy_from_slice(&p[id * d..(id + 1) * d]);
        }
    }

    fn backward_into(
        &self,
        _: &[f32],
        x: &Tensor,
        _: &Tensor,
        _: &mut Cache,
        dy: &mut Tensor,
        dx: Option<&mut Tensor>,
        grad_p: &mut [f32],
    ) {
        for (i, &v) in x.as_slice().iter().enumerate() {
            let id = self.token(v);
            let g = &dy.as_slice()[i * self.dim..(i + 1) * self.dim];
            for (a, &b) in grad_p[id * self.dim..(id + 1) * self.dim].iter_mut().zip(g) {
                *a += b;
            }
        }
        // Token ids are not differentiable: their gradient is zero.
        if let Some(dx) = dx {
            dx.resize_zeroed(x.shape());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Allocating;

    #[test]
    fn lookup_rows() {
        let table = [0., 1., 10., 11., 20., 21.];
        let e = Embedding::new(3, 2);
        let x = Tensor::from_vec(vec![1, 3], vec![2., 0., 1.]);
        let (y, _) = e.forward(&table, &x, false);
        assert_eq!(y.shape(), &[1, 3, 2]);
        assert_eq!(y.as_slice(), &[20., 21., 0., 1., 10., 11.]);
    }

    #[test]
    fn backward_scatter_adds() {
        let table = [0.0; 6];
        let e = Embedding::new(3, 2);
        let x = Tensor::from_vec(vec![1, 3], vec![1., 1., 2.]);
        let (y, c) = e.forward(&table, &x, true);
        let g = Tensor::from_vec(vec![1, 3, 2], vec![1., 2., 3., 4., 5., 6.]);
        let mut gp = [0.0; 6];
        let gx = e.backward(&table, &x, &y, &c, g, &mut gp, true).unwrap();
        assert!(gx.as_slice().iter().all(|&v| v == 0.0));
        // token 1 hit twice: [1+3, 2+4]; token 2 once: [5, 6]
        assert_eq!(gp, [0., 0., 4., 6., 5., 6.]);
    }

    #[test]
    fn param_count() {
        let mut rng = crate::rng::seeded(0);
        assert_eq!(Embedding::init(50, 8, &mut rng).params.len(), 400);
        let e = Embedding::new(50, 8);
        assert_eq!(e.param_count(), 400);
    }
}
