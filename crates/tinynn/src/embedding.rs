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
pub struct Embedding {
    vocab: usize,
    dim: usize,
}

impl Embedding {
    /// A `vocab × dim` lookup (architecture only).
    pub fn new(vocab: usize, dim: usize) -> Self {
        Self { vocab, dim }
    }

    /// Normal-initialized table with std `0.1` (small enough to keep the
    /// first LSTM steps in the linear regime).
    pub fn init(vocab: usize, dim: usize, rng: &mut impl Rng) -> LayerInit {
        LayerInit::new(
            Self::new(vocab, dim),
            &[init::normal(&[vocab, dim], 0.1, rng)],
        )
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
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

    fn forward(&self, p: &[f32], x: &Tensor, _train: bool) -> (Tensor, Cache) {
        let n = x.len();
        let mut out = Vec::with_capacity(n * self.dim);
        for &v in x.as_slice() {
            let id = self.token(v);
            out.extend_from_slice(&p[id * self.dim..(id + 1) * self.dim]);
        }
        let mut shape = x.shape().to_vec();
        shape.push(self.dim);
        (Tensor::from_vec(shape, out), Cache::none())
    }

    fn backward(
        &self,
        _p: &[f32],
        x: &Tensor,
        _cache: &Cache,
        grad_out: &Tensor,
        grad_p: &mut [f32],
    ) -> Tensor {
        for (i, &v) in x.as_slice().iter().enumerate() {
            let id = self.token(v);
            let g = &grad_out.as_slice()[i * self.dim..(i + 1) * self.dim];
            for (a, &b) in grad_p[id * self.dim..(id + 1) * self.dim].iter_mut().zip(g) {
                *a += b;
            }
        }
        Tensor::zeros(x.shape())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let (_, c) = e.forward(&table, &x, true);
        let g = Tensor::from_vec(vec![1, 3, 2], vec![1., 2., 3., 4., 5., 6.]);
        let mut gp = [0.0; 6];
        let gx = e.backward(&table, &x, &c, &g, &mut gp);
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
        assert_eq!(e.vocab(), 50);
        assert_eq!(e.dim(), 8);
    }
}
