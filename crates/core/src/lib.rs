//! # learning-tangle — tangle-based decentralized federated learning
//!
//! The paper's contribution: a network of nodes that collaboratively train
//! a model **without any central aggregator** by publishing model snapshots
//! into a [tangle](tangle_ledger) (a DAG ledger) and letting approval double
//! as model validation.
//!
//! Every participating node (paper Algorithm 2):
//! 1. derives the current **reference model** from the tangle consensus
//!    (Algorithm 1: maximize `confidence × rating`, optionally averaging the
//!    top *n*),
//! 2. selects parent tips by weighted random walk — optionally sampling
//!    many candidates and keeping the locally best-validating ones (the
//!    §III-E poisoning defense),
//! 3. averages the parents' parameters, trains on its private non-IID data,
//! 4. publishes the result **iff** it beats the reference model on local
//!    validation data — thereby approving its parents.
//!
//! Modules:
//! * `config` — hyperparameters ([`TangleHyperParams`], [`SimConfig`]).
//! * [`node`] — the per-node algorithm and its building blocks.
//! * [`attack`] — the paper's adversaries: random-noise poisoning and
//!   targeted label flipping (§III-E / §V-B).
//! * `sim` — the round-based simulator used for all paper experiments.
//! * [`metrics`] — accuracy / misclassification series and Table II
//!   helpers.
//! * [`dp`] — optional differential-privacy noise on published updates
//!   (§III-D mitigation).

pub mod attack;
pub mod cluster;
mod config;
pub mod dp;
mod eval_cache;
pub mod metrics;
pub mod node;
pub mod persist;
pub mod privacy;
mod sim;

pub use attack::{assign_malicious, AttackKind};
pub use config::{NetworkModel, SimConfig, TangleHyperParams};
pub use eval_cache::EvalCache;
pub use metrics::{rounds_to_reach, MetricsLog};
pub use node::{Node, RoundContext};
pub use sim::{eval_pool_indices, Simulation};
