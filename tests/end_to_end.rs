//! End-to-end integration tests across the whole workspace, exercised
//! through the `tangle-learning` facade.

use tangle_learning::baseline::{FedAvg, FedAvgConfig};
use tangle_learning::data::blobs::{self, BlobsConfig};
use tangle_learning::learning::{SimConfig, Simulation, TangleHyperParams};
use tangle_learning::nn::rng::seeded;
use tangle_learning::nn::zoo::mlp;
use tangle_learning::nn::Sequential;

fn dataset(users: usize, seed: u64) -> tangle_learning::data::FederatedDataset {
    blobs::generate(
        &BlobsConfig {
            users,
            samples_per_user: (24, 36),
            noise_std: 0.6,
            ..BlobsConfig::default()
        },
        seed,
    )
}

fn build() -> Sequential {
    mlp(8, &[16], 4, &mut seeded(1))
}

fn quick_cfg(nodes: usize, seed: u64) -> SimConfig {
    SimConfig {
        nodes_per_round: nodes,
        lr: 0.15,
        batch_size: 8,
        eval_fraction: 0.5,
        seed,
        hyper: TangleHyperParams {
            reference_avg: 3,
            ..TangleHyperParams::basic()
        },
        ..SimConfig::default()
    }
}

/// The decentralized tangle must reach an accuracy band comparable to the
/// centralized FedAvg baseline on the same data (the paper's Fig. 3 story:
/// "slightly inferior but still acceptable").
#[test]
fn tangle_tracks_fedavg_within_band() {
    let data = dataset(16, 3);
    let rounds = 25;

    let mut fa = FedAvg::new(
        &data,
        FedAvgConfig {
            nodes_per_round: 6,
            lr: 0.15,
            seed: 5,
            ..FedAvgConfig::default()
        },
        build,
    );
    for _ in 0..rounds {
        fa.round();
    }
    let (_, fedavg_acc) = fa.evaluate(1.0, 0);
    drop(fa);

    let mut sim = Simulation::new(data, quick_cfg(6, 5), build);
    for _ in 0..rounds {
        sim.round();
    }
    let tangle_acc = sim.evaluate(0).accuracy;

    assert!(fedavg_acc > 0.8, "baseline failed to learn: {fedavg_acc}");
    assert!(
        tangle_acc > fedavg_acc - 0.15,
        "tangle too far behind fedavg: {tangle_acc} vs {fedavg_acc}"
    );
}

/// Two identically-seeded simulations must produce identical ledgers and
/// identical consensus models.
#[test]
fn deterministic_replay() {
    let run = || {
        let mut sim = Simulation::new(dataset(10, 7), quick_cfg(5, 11), build);
        for _ in 0..8 {
            sim.round();
        }
        (
            sim.tangle().len(),
            sim.tangle().tips(),
            sim.consensus_params(),
        )
    };
    let (len_a, tips_a, params_a) = run();
    let (len_b, tips_b, params_b) = run();
    assert_eq!(len_a, len_b);
    assert_eq!(tips_a, tips_b);
    assert_eq!(params_a, params_b);
}

/// The tip population must stay bounded as the network runs (paper §III-C).
#[test]
fn tip_count_remains_bounded() {
    let mut sim = Simulation::new(dataset(14, 31), quick_cfg(7, 19), build);
    let mut max_tips = 0;
    for _ in 0..20 {
        let s = sim.round();
        max_tips = max_tips.max(s.tips);
    }
    assert!(
        max_tips <= 4 * 7,
        "tips should stay O(nodes_per_round): {max_tips}"
    );
}

/// Transactions carry round and issuer metadata usable for audits.
#[test]
fn ledger_metadata_is_complete() {
    let mut sim = Simulation::new(dataset(8, 41), quick_cfg(4, 23), build);
    for _ in 0..5 {
        sim.round();
    }
    for tx in sim.tangle().transactions().iter().skip(1) {
        assert!(tx.round >= 1 && tx.round <= 5);
        assert!((tx.issuer as usize) < sim.nodes().len());
        assert!(!tx.parents.is_empty());
        assert_eq!(tx.payload.len(), sim.consensus_params().len());
    }
}
