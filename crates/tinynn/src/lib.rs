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
//! * Every [`Layer`] is immutable during `forward`/`backward`; all per-call
//!   state lives in a [`Cache`] value returned by `forward`, so a training
//!   step reads the model through `&Sequential` and only the optimizer
//!   writes its parameters.
//! * [`Sequential`] composes layers; [`loss`] provides softmax cross-entropy.
//!   Training is one [`Sequential::loss_and_grads`] per mini-batch followed
//!   by [`Sgd::step`] (`p -= lr·g`); there is no other optimizer.
//! * [`params`] flattens a model's parameters into a single `Vec<f32>` — the
//!   unit of exchange on the tangle ledger — and restores them.
//!
//! ## Quickstart
//!
//! ```
//! use tinynn::{Sequential, Dense, Relu, Sgd, loss, rng::seeded};
//!
//! let mut rng = seeded(42);
//! let mut model = Sequential::new(vec![
//!     Box::new(Dense::xavier(4, 16, &mut rng)),
//!     Box::new(Relu::new()),
//!     Box::new(Dense::xavier(16, 3, &mut rng)),
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
pub mod tensor;
pub mod wire;
pub mod zoo;

pub use activations::{Relu, Sigmoid, Tanh};
pub use conv::Conv2d;
pub use dense::Dense;
pub use embedding::Embedding;
pub use layer::{Cache, Layer};
pub use lstm::Lstm;
pub use metrics::ConfusionMatrix;
pub use model::{Gradients, Sequential};
pub use optim::Sgd;
pub use params::ParamVec;
pub use pool::MaxPool2d;
pub use reshape::Flatten;
pub use tensor::Tensor;
