//! # feddata — synthetic federated datasets
//!
//! The paper evaluates on two LEAF datasets that cannot be redistributed
//! here: FEMNIST (handwritten characters partitioned by writer) and
//! Shakespeare (next-character prediction partitioned by play character).
//! This crate builds *synthetic* federated datasets that preserve the
//! properties driving the paper's results:
//!
//! * horizontally partitioned across many users,
//! * **non-IID** per user (feature skew through per-writer transforms,
//!   label skew through Dirichlet class distributions),
//! * unbalanced (per-user sample counts vary),
//! * learnable by the paper's model families (CNN / stacked LSTM).
//!
//! Modules:
//! * [`femnist`] — procedural glyph images with per-writer style transforms.
//! * [`shakespeare`] — per-role Markov character sources for next-character
//!   prediction.
//! * [`blobs`] — Gaussian-blob vector classification, for fast tests and
//!   examples.
//! * [`sensors`] — synthetic edge-sensor activity windows with per-device
//!   calibration skew (the paper's IoT motivation).
//! * [`partition`] — the Dirichlet non-IID label partitioner.
//! * [`poison`] — dataset-level poisoning transforms (label flipping).

pub mod blobs;
mod dataset;
pub mod femnist;
pub mod partition;
pub mod poison;
pub mod sensors;
pub mod shakespeare;

pub use dataset::{ClientData, FederatedDataset, TaskKind};
