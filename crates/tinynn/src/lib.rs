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
//! * A layer is an architecture: it holds its dimensions only, reads its
//!   parameters from a borrowed `&[f32]` and writes into borrowed buffers:
//!   `forward_into` into an output and a [`Cache`], `backward_into` into
//!   an input gradient. ReLU and Flatten rewrite their input in place.
//! * Every pass borrows its thread's workspace of such buffers, kept from
//!   one call to the next, so a warm evaluation or training step
//!   allocates nothing (see [`Sequential`]).
//! * [`Sequential`] composes layers (shared behind an `Arc`) with one flat
//!   parameter vector in [`ParamVec`] order — the unit of exchange on the
//!   tangle ledger; [`zoo`] builds the paper's models. [`Sequential::evaluate_params`]
//!   scores any such vector in place. [`loss`] provides softmax
//!   cross-entropy.
//! * Training is one [`Sequential::loss_and_grads`] per mini-batch, giving a
//!   flat gradient, followed by [`Sgd::step`] (`p -= lr·g`), or both at
//!   once in [`Sgd::train_step`]; there is no other optimizer.
//!
//! ## Quickstart
//!
//! ```
//! use tinynn::{rng::seeded, zoo, Sgd};
//!
//! let mut rng = seeded(42);
//! let mut model = zoo::mlp(4, &[16], 3, &mut rng);
//! let x = tinynn::Tensor::from_vec(vec![2, 4], vec![0.1; 8]);
//! let targets = [0u32, 2];
//! let mut sgd = Sgd::new(0.1);
//! let (loss_value, grads) = model.loss_and_grads(&x, &targets);
//! sgd.step(&mut model, &grads);
//! assert!(loss_value > 0.0);
//! ```

mod activations;
mod conv;
mod dense;
mod embedding;
pub mod gemm;
#[cfg(test)]
mod gradcheck;
mod init;
mod layer;
pub mod loss;
mod lstm;
mod metrics;
mod model;
mod optim;
mod params;
mod pool;
mod reshape;
pub mod rng;
mod simd;
mod tensor;
#[cfg(test)]
mod testing;
pub mod wire;
mod workspace;
pub mod zoo;

pub use dense::Dense;
pub use layer::{Cache, LayerInit};
pub use metrics::ConfusionMatrix;
pub use model::Sequential;
pub use optim::Sgd;
pub use params::ParamVec;
pub use simd::kernel_width;
pub use tensor::Tensor;
