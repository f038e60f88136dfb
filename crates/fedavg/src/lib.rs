//! # fedavg — the centralized federated-averaging baseline
//!
//! The paper benchmarks the learning tangle against classic federated
//! averaging (McMahan et al.): a central server samples a fraction of
//! clients each round, ships them the global model, lets each run a few
//! epochs of local SGD, and aggregates the returned parameters weighted by
//! local sample counts.
//!
//! The crate also hosts the *local training primitives* shared by the
//! baseline and the learning tangle — both systems train the same models on
//! the same `feddata` clients; only the coordination differs.

pub mod aggregate;
mod server;
mod train;

pub use aggregate::Aggregator;
pub use server::{FedAvg, FedAvgConfig};
pub use train::{evaluate_params, local_train};
