//! Reference model builders matching the paper's Table I architectures
//! (at configurable width, so that 200-round sweeps are feasible on CPU).

use crate::activations::Relu;
use crate::conv::Conv2d;
use crate::dense::Dense;
use crate::embedding::Embedding;
use crate::layer::LayerInit;
use crate::lstm::Lstm;
use crate::model::Sequential;
use crate::pool::MaxPool2d;
use crate::reshape::Flatten;
use rand::Rng;

/// Multi-layer perceptron: `in -> hidden... -> classes` with ReLU between.
pub fn mlp(in_dim: usize, hidden: &[usize], classes: usize, rng: &mut impl Rng) -> Sequential {
    let mut layers = Vec::new();
    let mut d = in_dim;
    for &h in hidden {
        layers.push(Dense::he(d, h, rng));
        layers.push(Relu.into());
        d = h;
    }
    layers.push(Dense::xavier(d, classes, rng));
    Sequential::new(layers)
}

/// Width configuration for [`femnist_cnn`].
#[derive(Clone, Copy, Debug)]
pub struct CnnConfig {
    /// Channels after the first convolution.
    pub conv1: usize,
    /// Channels after the second convolution.
    pub conv2: usize,
    /// Width of the dense layer before the classifier.
    pub dense: usize,
}

impl CnnConfig {
    /// Paper-scale widths (LEAF's FEMNIST CNN: 32/64 conv, 2048 dense is
    /// impractically wide here; 32/64/128 keeps the architecture).
    pub fn paper() -> Self {
        Self {
            conv1: 32,
            conv2: 64,
            dense: 128,
        }
    }

    /// Scaled-down widths for fast CPU sweeps (default in experiments).
    pub fn scaled() -> Self {
        Self {
            conv1: 6,
            conv2: 12,
            dense: 48,
        }
    }
}

/// The FEMNIST CNN: two 3×3 conv + ReLU + 2×2 max-pool blocks, then a
/// dense ReLU layer and a linear classifier. `img` is the (square) input
/// side length; it must be divisible by 4.
pub fn femnist_cnn(img: usize, classes: usize, cfg: CnnConfig, rng: &mut impl Rng) -> Sequential {
    assert_eq!(
        img % 4,
        0,
        "image side must be divisible by 4 (two 2x2 pools)"
    );
    let side = img / 4;
    Sequential::new(vec![
        Conv2d::he(1, cfg.conv1, 3, 1, rng),
        Relu.into(),
        MaxPool2d::new(2).into(),
        Conv2d::he(cfg.conv1, cfg.conv2, 3, 1, rng),
        Relu.into(),
        MaxPool2d::new(2).into(),
        Flatten.into(),
        Dense::he(cfg.conv2 * side * side, cfg.dense, rng),
        Relu.into(),
        Dense::xavier(cfg.dense, classes, rng),
    ])
}

/// The Shakespeare next-character model: embedding, `layers` stacked LSTMs,
/// and a per-timestep linear decoder back to the vocabulary.
pub fn char_lstm(
    vocab: usize,
    embed: usize,
    hidden: usize,
    layers: usize,
    rng: &mut impl Rng,
) -> Sequential {
    assert!(layers >= 1, "need at least one LSTM layer");
    let mut stack: Vec<LayerInit> = vec![Embedding::init(vocab, embed, rng)];
    let mut d = embed;
    for _ in 0..layers {
        stack.push(Lstm::init(d, hidden, rng));
        d = hidden;
    }
    stack.push(Dense::xavier(hidden, vocab, rng));
    Sequential::new(stack)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;
    use crate::tensor::Tensor;

    #[test]
    fn mlp_shapes() {
        let mut rng = seeded(0);
        let m = mlp(10, &[16, 8], 4, &mut rng);
        let x = Tensor::zeros(&[2, 10]);
        let y = m.predict(&x);
        assert_eq!(y.shape(), &[2, 4]);
    }

    #[test]
    fn cnn_shapes() {
        let mut rng = seeded(1);
        let m = femnist_cnn(16, 10, CnnConfig::scaled(), &mut rng);
        let x = Tensor::zeros(&[2, 1, 16, 16]);
        let y = m.predict(&x);
        assert_eq!(y.shape(), &[2, 10]);
    }

    #[test]
    #[should_panic(expected = "divisible by 4")]
    fn cnn_rejects_bad_image_size() {
        let mut rng = seeded(2);
        femnist_cnn(15, 10, CnnConfig::scaled(), &mut rng);
    }

    #[test]
    fn lstm_model_shapes() {
        let mut rng = seeded(3);
        let m = char_lstm(30, 8, 16, 2, &mut rng);
        let x = Tensor::from_fn(&[2, 5], |i| (i % 30) as f32);
        let y = m.predict(&x);
        assert_eq!(y.shape(), &[2, 5, 30]);
    }

    #[test]
    fn models_are_deterministic_per_seed() {
        let mut r1 = seeded(4);
        let mut r2 = seeded(4);
        let m1 = mlp(4, &[8], 2, &mut r1);
        let m2 = mlp(4, &[8], 2, &mut r2);
        assert_eq!(
            crate::ParamVec::from_model(&m1),
            crate::ParamVec::from_model(&m2)
        );
    }
}
