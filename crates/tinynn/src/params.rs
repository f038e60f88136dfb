//! Flat parameter vectors — the unit of exchange on the tangle.
//!
//! Each tangle transaction carries a *full set of model parameters* (paper
//! §III). A [`Sequential`] already keeps its parameters as one `Vec<f32>` in
//! deterministic layer order; [`ParamVec`] is that vector on its own, which
//! [`Sequential::evaluate_params`] scores in place and
//! [`Sequential::with_params`] turns back into a model.

use crate::model::Sequential;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// A model's parameters flattened into a single vector.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ParamVec(pub Vec<f32>);

impl ParamVec {
    /// A copy of `model`'s parameters, in layer order.
    pub fn from_model(model: &Sequential) -> Self {
        ParamVec(model.params().to_vec())
    }

    /// Number of scalars.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` if the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Borrow the raw values.
    pub fn as_slice(&self) -> &[f32] {
        &self.0
    }

    /// Unweighted elementwise mean of several parameter vectors.
    ///
    /// This is the tangle's aggregation step: published models are *equally
    /// weighted* (paper §III-C), unlike FedAvg's sample-count weighting.
    ///
    /// # Panics
    /// Panics if `vecs` is empty or lengths differ.
    pub fn average(vecs: &[&ParamVec]) -> ParamVec {
        assert!(!vecs.is_empty(), "cannot average zero parameter vectors");
        let n = vecs[0].0.len();
        for v in vecs {
            assert_eq!(v.0.len(), n, "parameter vector length mismatch");
        }
        let inv = 1.0 / vecs.len() as f32;
        let mut out = vec![0.0f32; n];
        // Parallel over contiguous chunks of the parameter space.
        const CHUNK: usize = 16 * 1024;
        out.par_chunks_mut(CHUNK)
            .enumerate()
            .for_each(|(ci, chunk)| {
                let base = ci * CHUNK;
                for v in vecs {
                    let src = &v.0[base..base + chunk.len()];
                    for (o, &s) in chunk.iter_mut().zip(src) {
                        *o += s;
                    }
                }
                for o in chunk.iter_mut() {
                    *o *= inv;
                }
            });
        ParamVec(out)
    }

    /// Weighted elementwise mean; `weights` need not be normalized.
    ///
    /// Used by the FedAvg baseline (weights = local sample counts).
    pub fn weighted_average(vecs: &[&ParamVec], weights: &[f32]) -> ParamVec {
        assert_eq!(vecs.len(), weights.len());
        assert!(!vecs.is_empty(), "cannot average zero parameter vectors");
        let total: f32 = weights.iter().sum();
        assert!(total > 0.0, "weights must sum to a positive value");
        let n = vecs[0].0.len();
        let mut out = vec![0.0f32; n];
        for (v, &w) in vecs.iter().zip(weights) {
            assert_eq!(v.0.len(), n, "parameter vector length mismatch");
            let w = w / total;
            for (o, &s) in out.iter_mut().zip(&v.0) {
                *o += w * s;
            }
        }
        ParamVec(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Dense;
    use crate::model::Sequential;
    use crate::rng::seeded;
    use crate::tensor::Tensor;

    fn model(seed: u64) -> Sequential {
        let mut rng = seeded(seed);
        Sequential::new(vec![
            Dense::he(3, 5, &mut rng),
            Dense::xavier(5, 2, &mut rng),
        ])
    }

    #[test]
    fn roundtrip_preserves_predictions() {
        let src = model(1);
        let dst = model(2).with_params(ParamVec::from_model(&src).0);
        let x = Tensor::from_fn(&[4, 3], |i| (i as f32).sin());
        assert_eq!(src.predict(&x).as_slice(), dst.predict(&x).as_slice());
    }

    #[test]
    fn len_matches_param_count() {
        let m = model(3);
        assert_eq!(ParamVec::from_model(&m).len(), m.param_count());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn with_params_rejects_wrong_length() {
        let _ = model(4).with_params(vec![0.0; 3]);
    }

    #[test]
    fn average_is_elementwise_mean() {
        let a = ParamVec(vec![1.0, 2.0, 3.0]);
        let b = ParamVec(vec![3.0, 4.0, 5.0]);
        let avg = ParamVec::average(&[&a, &b]);
        assert_eq!(avg.0, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn average_of_one_is_identity() {
        let a = ParamVec(vec![1.5, -2.5]);
        assert_eq!(ParamVec::average(&[&a]).0, a.0);
    }

    #[test]
    fn weighted_average_respects_weights() {
        let a = ParamVec(vec![0.0]);
        let b = ParamVec(vec![10.0]);
        let avg = ParamVec::weighted_average(&[&a, &b], &[1.0, 3.0]);
        assert!((avg.0[0] - 7.5).abs() < 1e-6);
    }

    #[test]
    fn large_average_parallel_path() {
        let n = 100_000;
        let a = ParamVec(vec![1.0; n]);
        let b = ParamVec(vec![3.0; n]);
        let avg = ParamVec::average(&[&a, &b]);
        assert!(avg.0.iter().all(|&v| (v - 2.0).abs() < 1e-6));
    }
}
