//! The shared cross-process experiment preset.
//!
//! A multi-process differential run has no shared memory: every daemon —
//! and every in-process oracle it is compared against — must reconstruct
//! the *same* dataset, model initialization, simulation config, and
//! genesis transaction from nothing but `(nodes, seed)`. This module is
//! that reconstruction, mirroring the `lt-conformance` preset (same
//! blobs parameters, same MLP, same hyperparameters) so the conformance
//! invariant checkers apply to networked runs unchanged.

use feddata::blobs::{self, BlobsConfig};
use feddata::FederatedDataset;
use learning_tangle::{Node, SimConfig, TangleHyperParams};
use tangle_gossip::{RepairConfig, TxMessage};
use tinynn::rng::{derive, seeded};
use tinynn::{ParamVec, Sequential};

/// Orphan cap used by networked runs (matches the conformance preset:
/// small enough that the cap invariant actually bites).
pub const ORPHAN_CAP: usize = 16;

/// A fully specified cross-process experiment.
#[derive(Clone, Copy, Debug)]
pub struct Preset {
    /// Population size (= daemon count = dataset clients).
    pub nodes: usize,
    /// Master seed; everything else derives from it.
    pub seed: u64,
}

impl Preset {
    /// The federated dataset every executor regenerates.
    pub fn dataset(&self) -> FederatedDataset {
        blobs::generate(
            &BlobsConfig {
                users: self.nodes,
                samples_per_user: (18, 24),
                noise_std: 0.6,
                ..BlobsConfig::default()
            },
            derive(self.seed, 0xDA7A),
        )
    }

    /// The shared model architecture and initialization.
    pub fn build() -> Sequential {
        tinynn::zoo::mlp(8, &[10], 4, &mut seeded(5))
    }

    /// The simulation configuration (identical to the conformance one).
    pub fn sim_cfg(&self) -> SimConfig {
        SimConfig {
            nodes_per_round: 3,
            lr: 0.2,
            batch_size: 8,
            eval_fraction: 0.5,
            seed: self.seed,
            hyper: TangleHyperParams {
                sample_size: 4,
                ..TangleHyperParams::basic()
            },
            ..SimConfig::default()
        }
    }

    /// The genesis transaction: one fresh model initialization, exactly
    /// as [`tangle_gossip::learn::GossipLearning`] creates it, so
    /// content ids agree across every executor.
    pub fn genesis(&self) -> TxMessage {
        TxMessage::create(
            &ParamVec::from_model(&Self::build()),
            vec![],
            u64::MAX,
            0,
            0,
        )
    }

    /// Repair timing for real daemons. The protocol default counts in
    /// simulator ticks (backoff base 8); a daemon's clock is wall
    /// milliseconds, so that value would re-request a transaction while
    /// its body is still on the socket. This is the same shape on an
    /// ms-scale: a re-request every 25ms, the protocol's shared retry cap.
    pub(crate) fn repair_cfg() -> RepairConfig {
        RepairConfig {
            backoff_base: 25,
            max_retries: 6,
        }
    }

    /// The honest node population over [`Preset::dataset`].
    pub(crate) fn population(&self) -> Vec<Node> {
        self.dataset()
            .clients
            .into_iter()
            .enumerate()
            .map(|(i, c)| Node::honest(i, c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_is_deterministic() {
        let a = Preset { nodes: 3, seed: 7 };
        let b = Preset { nodes: 3, seed: 7 };
        assert_eq!(a.genesis().content_id(), b.genesis().content_id());
        let da = a.dataset();
        let db = b.dataset();
        assert_eq!(da.num_clients(), 3);
        assert_eq!(da.clients[0].train_len(), db.clients[0].train_len());
    }

    #[test]
    fn different_seed_different_genesis_payloadless_fields_only() {
        // The genesis carries the model init (seeded independently of the
        // experiment seed), so its content id is seed-invariant — what
        // varies per seed is the dataset and training randomness.
        let a = Preset { nodes: 3, seed: 7 };
        let b = Preset { nodes: 3, seed: 8 };
        assert_eq!(a.genesis().content_id(), b.genesis().content_id());
    }
}
