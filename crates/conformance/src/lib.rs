//! # lt-conformance — model-based conformance testing for the learning tangle
//!
//! The workspace has two in-process executors of the same protocol: the
//! round-based [`Simulation`](learning_tangle::Simulation) and the gossip
//! network ([`tangle_gossip::learn::GossipLearning`]). They share the node
//! logic but differ in everything around it — snapshots, caches, message
//! delivery, churn. This crate checks both against one reference model of
//! the *protocol*:
//!
//! * `model` — a pure in-memory **reference model**: naive,
//!   independently written implementations of the ledger semantics
//!   (weights, ratings, tips, depths, confirmation, reference selection)
//!   over payload-free [`TxView`](tangle_ledger::TxView) structure, plus a
//!   deterministic stub-trainer closed loop for protocol-level properties
//!   that must not depend on real gradients.
//! * `schedule` — seeded generation of arbitrary interleavings of node
//!   activations, message-delivery windows, and crash/restart churn.
//! * `explore` — drives the round simulator and the gossip network
//!   through equivalent schedules and checks them against the reference
//!   model plus standalone invariants;
//!   [`Mutation`] can inject a known bug (a stale-cache read) to
//!   prove the harness catches it.
//! * [`shrink()`] — delta-debugging minimization of failing schedules.
//! * `artifact` — JSON repro artifacts (seed + shrunk schedule),
//!   replayable via `lt-experiments conformance --replay <file>`.
//! * [`gen`] — small shared generators (script-driven tangles) reused by
//!   the property-test suites of `tangle-ledger` and the facade crate.

mod artifact;
mod explore;
pub mod gen;
mod model;
mod schedule;
mod shrink;

pub use artifact::Artifact;
pub use explore::{
    check_ledger_invariants, check_replica_caches, check_schedule, explore, GossipChecker, Mutation,
};
pub use model::{ShadowCache, StructModel, StubSim};
pub use schedule::{Op, Schedule};
pub use shrink::shrink;
