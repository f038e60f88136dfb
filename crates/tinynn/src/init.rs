//! Weight initialization schemes.

use crate::tensor::Tensor;
use rand::Rng;
use rand_distr::{Distribution, Normal, Uniform};

/// Xavier/Glorot uniform initialization: `U(-a, a)` with
/// `a = sqrt(6 / (fan_in + fan_out))`. The default for tanh/sigmoid and
/// linear output layers.
pub(crate) fn xavier_uniform(
    shape: &[usize],
    fan_in: usize,
    fan_out: usize,
    rng: &mut impl Rng,
) -> Tensor {
    let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
    let dist = Uniform::new_inclusive(-a, a).expect("valid uniform bounds");
    Tensor::from_fn(shape, |_| dist.sample(rng))
}

/// He/Kaiming normal initialization: `N(0, sqrt(2 / fan_in))`. The default
/// for ReLU networks.
pub(crate) fn he_normal(shape: &[usize], fan_in: usize, rng: &mut impl Rng) -> Tensor {
    let std = (2.0 / fan_in as f32).sqrt();
    let dist = Normal::new(0.0f32, std).expect("valid normal params");
    Tensor::from_fn(shape, |_| dist.sample(rng))
}

/// Normal initialization with explicit standard deviation.
pub(crate) fn normal(shape: &[usize], std: f32, rng: &mut impl Rng) -> Tensor {
    let dist = Normal::new(0.0f32, std).expect("valid normal params");
    Tensor::from_fn(shape, |_| dist.sample(rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    #[test]
    fn xavier_bounds_hold() {
        let mut rng = seeded(1);
        let t = xavier_uniform(&[64, 64], 64, 64, &mut rng);
        let a = (6.0f32 / 128.0).sqrt();
        assert!(t.as_slice().iter().all(|v| v.abs() <= a + 1e-6));
        // Not all identical
        assert!(t.as_slice().iter().any(|&v| v != t.as_slice()[0]));
    }

    #[test]
    fn he_normal_std_roughly_correct() {
        let mut rng = seeded(2);
        let fan_in = 128;
        let t = he_normal(&[fan_in, 256], fan_in, &mut rng);
        let n = t.len() as f32;
        let mean = t.as_slice().iter().sum::<f32>() / n;
        let var = t.as_slice().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / n;
        let expect = 2.0 / fan_in as f32;
        assert!((var - expect).abs() < expect * 0.2, "var {var} vs {expect}");
    }

    #[test]
    fn normal_zero_std_is_constant() {
        let mut rng = seeded(3);
        let t = normal(&[16], 0.0, &mut rng);
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
    }
}
