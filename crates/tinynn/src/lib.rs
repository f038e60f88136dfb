//! # tinynn — a minimal, pure-Rust neural-network library
//!
//! `tinynn` is the machine-learning substrate of the *learning tangle*
//! reproduction. It implements exactly what the paper's evaluation needs —
//! dense, convolutional and recurrent (LSTM) models trained with plain
//! mini-batch SGD — with manual backpropagation and no external BLAS.
//!
//! ## Design
//!
//! * [`Tensor`] is a dense row-major `f32` array with an explicit shape.
//! * A [`Layer`] is an architecture: it holds its dimensions only and reads
//!   its parameters from a borrowed `&[f32]`. All per-call state lives in a
//!   [`Cache`] value returned by `forward`.
//! * [`Sequential`] composes layers (shared behind an `Arc`) with one flat
//!   parameter vector in [`ParamVec`] order — the unit of exchange on the
//!   tangle ledger. [`Sequential::evaluate_params`] scores any such vector
//!   in place. [`loss`] provides softmax cross-entropy.
//! * Training is one [`Sequential::loss_and_grads`] per mini-batch, giving a
//!   flat gradient, followed by [`Sgd::step`] (`p -= lr·g`); there is no
//!   other optimizer.
//!
//! ## Quickstart
//!
//! ```
//! use tinynn::{Sequential, Dense, Relu, Sgd, loss, rng::seeded};
//!
//! let mut rng = seeded(42);
//! let mut model = Sequential::new(vec![
//!     Dense::xavier(4, 16, &mut rng),
//!     Relu.into(),
//!     Dense::xavier(16, 3, &mut rng),
//! ]);
//! let x = tinynn::Tensor::from_vec(vec![2, 4], vec![0.1; 8]);
//! let targets = [0u32, 2];
//! let mut sgd = Sgd::new(0.1);
//! let (loss_value, grads) = model.loss_and_grads(&x, &targets);
//! sgd.step(&mut model, &grads);
//! assert!(loss_value > 0.0);
//! ```

pub mod activations;
pub mod conv;
pub mod dense;
pub mod embedding;
pub mod gemm;
pub mod gradcheck;
pub mod init;
pub mod layer;
pub mod loss;
pub mod lstm;
pub mod metrics;
pub mod model;
pub mod optim;
pub mod params;
pub mod pool;
pub mod reshape;
pub mod rng;
mod simd;
pub mod tensor;
#[cfg(test)]
mod testing;
pub mod wire;
pub mod zoo;

pub use activations::{Relu, Sigmoid, Tanh};
pub use conv::Conv2d;
pub use dense::Dense;
pub use embedding::Embedding;
pub use layer::{Cache, Layer, LayerInit};
pub use lstm::Lstm;
pub use metrics::ConfusionMatrix;
pub use model::Sequential;
pub use optim::Sgd;
pub use params::ParamVec;
pub use pool::MaxPool2d;
pub use reshape::Flatten;
pub use simd::kernel_width;
pub use tensor::Tensor;
