//! Differential-privacy noise on published parameters.
//!
//! The paper (§III-D) points to differential privacy — "essentially adds
//! noise to client updates" — as the standard mitigation for linkability
//! and reconstruction attacks on published models. This module implements
//! the Gaussian mechanism on the published *update* (the delta between the
//! trained parameters and the averaged parent base): the delta's L2 norm is
//! clipped to `clip_norm` and `N(0, σ²)` noise is added per coordinate.

use rand::RngExt;
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};
use tinynn::ParamVec;

/// Gaussian-mechanism configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct DpConfig {
    /// Maximum L2 norm of the published update.
    pub clip_norm: f32,
    /// Standard deviation of the per-coordinate Gaussian noise.
    pub sigma: f32,
}

/// Apply the mechanism: clip `params − base` to `clip_norm`, add noise,
/// and return `base + noised_delta`.
pub(crate) fn privatize(
    params: &ParamVec,
    base: &ParamVec,
    cfg: &DpConfig,
    rng: &mut impl RngExt,
) -> ParamVec {
    assert_eq!(params.len(), base.len(), "parameter dimension mismatch");
    let mut delta: Vec<f32> = params
        .as_slice()
        .iter()
        .zip(base.as_slice())
        .map(|(p, b)| p - b)
        .collect();
    let norm = delta.iter().map(|v| v * v).sum::<f32>().sqrt();
    if norm > cfg.clip_norm && norm > 0.0 {
        let s = cfg.clip_norm / norm;
        for v in &mut delta {
            *v *= s;
        }
    }
    if cfg.sigma > 0.0 {
        let noise = Normal::new(0.0f32, cfg.sigma).expect("valid sigma");
        for v in &mut delta {
            *v += noise.sample(rng);
        }
    }
    ParamVec(
        base.as_slice()
            .iter()
            .zip(&delta)
            .map(|(b, d)| b + d)
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinynn::rng::seeded;

    #[test]
    fn clipping_bounds_update_norm() {
        let base = ParamVec(vec![0.0; 4]);
        let params = ParamVec(vec![10.0, 0.0, 0.0, 0.0]);
        let cfg = DpConfig {
            clip_norm: 1.0,
            sigma: 0.0,
        };
        let mut rng = seeded(1);
        let out = privatize(&params, &base, &cfg, &mut rng);
        let norm = out.as_slice().iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
    }

    #[test]
    fn small_updates_pass_unclipped() {
        let base = ParamVec(vec![1.0; 3]);
        let params = ParamVec(vec![1.1, 1.0, 0.9]);
        let cfg = DpConfig {
            clip_norm: 10.0,
            sigma: 0.0,
        };
        let mut rng = seeded(2);
        let out = privatize(&params, &base, &cfg, &mut rng);
        for (a, b) in out.as_slice().iter().zip(params.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn noise_perturbs_but_preserves_scale() {
        let base = ParamVec(vec![0.0; 1000]);
        let params = ParamVec(vec![0.0; 1000]);
        let cfg = DpConfig {
            clip_norm: 1.0,
            sigma: 0.1,
        };
        let mut rng = seeded(3);
        let out = privatize(&params, &base, &cfg, &mut rng);
        let n = out.len() as f32;
        let var = out.as_slice().iter().map(|v| v * v).sum::<f32>() / n;
        assert!((var - 0.01).abs() < 0.005, "noise variance {var}");
    }

    #[test]
    fn zero_sigma_zero_clip_edge() {
        let base = ParamVec(vec![0.0; 2]);
        let params = ParamVec(vec![0.0; 2]);
        let cfg = DpConfig {
            clip_norm: 1.0,
            sigma: 0.0,
        };
        let mut rng = seeded(4);
        let out = privatize(&params, &base, &cfg, &mut rng);
        assert_eq!(out.as_slice(), &[0.0, 0.0]);
    }
}
