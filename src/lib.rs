//! # tangle-learning — decentralized federated learning on a tangle ledger
//!
//! A from-scratch Rust reproduction of *"Tangle Ledger for Decentralized
//! Learning"* (Schmid et al., 2020): federated learning without a central
//! aggregator, coordinated through an IOTA-style DAG ledger in which
//! publishing a model update doubles as validation of the updates it
//! approves.
//!
//! This facade crate re-exports the library crates a user builds on. The
//! TCP daemon (`lt-net`), the conformance harness (`lt-conformance`) and
//! the experiment CLI (`lt-experiments`) are separate workspace members,
//! not re-exported here. Each crate exports only what its dependants name:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`ledger`] | `tangle-ledger` | DAG ledger, tip selection (walks and exit-mass draws), confidence/rating analysis, PoW, DOT export |
//! | [`nn`] | `tinynn` | tensors, the paper's CNN/LSTM models ([`nn::zoo`]), manual backprop, SGD, parameter vectors, the `LTPV` wire codec |
//! | [`data`] | `feddata` | synthetic FEMNIST / Shakespeare / blob federated datasets |
//! | [`baseline`] | `fedavg` | the centralized federated-averaging baseline |
//! | [`learning`] | `learning-tangle` | the paper's node algorithms, attacks, and simulators |
//! | [`gossip`] | `tangle-gossip` | simulated P2P network: per-peer replicas, announce/pull dissemination, advertise/re-request repair, partitions |
//! | [`telemetry`] | `lt-telemetry` | counters, histograms, span timers, structured JSONL event sinks |
//!
//! ## Quickstart
//!
//! ```
//! use tangle_learning::learning::{Simulation, SimConfig, TangleHyperParams};
//! use tangle_learning::data::blobs::{self, BlobsConfig};
//!
//! // A small federated population over an easy synthetic task.
//! let data = blobs::generate(&BlobsConfig::default(), 7);
//! let build = || tangle_learning::nn::zoo::mlp(8, &[16], 4, &mut tangle_learning::nn::rng::seeded(1));
//! let cfg = SimConfig {
//!     nodes_per_round: 5,
//!     hyper: TangleHyperParams::basic(),
//!     ..SimConfig::default()
//! };
//! let mut sim = Simulation::new(data, cfg, build);
//! for _ in 0..5 {
//!     sim.round();
//! }
//! let result = sim.evaluate(0);
//! assert!(result.accuracy >= 0.0 && result.accuracy <= 1.0);
//! ```

/// The tangle (DAG ledger) substrate.
pub use tangle_ledger as ledger;

/// The neural-network substrate.
pub use tinynn as nn;

/// Synthetic federated datasets.
pub use feddata as data;

/// The centralized FedAvg baseline.
pub use fedavg as baseline;

/// The learning-tangle core (the paper's contribution).
pub use learning_tangle as learning;

/// The simulated P2P gossip network (per-peer replicas, announce/pull
/// dissemination, advertise/re-request repair, partitions — the paper's
/// §VI distributed-implementation outlook).
pub use tangle_gossip as gossip;

/// Observability: counters, histograms, span timers, and structured
/// JSONL event sinks threaded through the simulators.
pub use lt_telemetry as telemetry;
