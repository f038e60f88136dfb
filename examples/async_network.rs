//! Asynchronous (round-free) decentralized learning.
//!
//! The round structure of the paper's evaluation exists only for
//! comparability with FedAvg — a real tangle network is asynchronous. Here
//! worker threads snapshot the shared ledger, train against their (stale)
//! view, and publish concurrently, like independent peers.
//!
//! ```text
//! cargo run --release --example async_network
//! ```

use tangle_learning::data::blobs::{self, BlobsConfig};
use tangle_learning::learning::async_sim::{run_async, AsyncOptions};
use tangle_learning::learning::node::Node;
use tangle_learning::learning::{SimConfig, TangleHyperParams};
use tangle_learning::nn::rng::seeded;
use tangle_learning::nn::zoo::mlp;

fn main() {
    let data = blobs::generate(
        &BlobsConfig {
            users: 16,
            samples_per_user: (24, 36),
            noise_std: 0.7,
            ..BlobsConfig::default()
        },
        8,
    );
    println!("dataset: {}", data.summary());
    let nodes: Vec<Node> = data
        .clients
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, c)| Node::honest(i, c))
        .collect();
    let build = || mlp(8, &[16], 4, &mut seeded(1));
    let cfg = SimConfig {
        lr: 0.15,
        seed: 77,
        hyper: TangleHyperParams {
            confidence_samples: 8,
            reference_avg: 3,
            ..TangleHyperParams::basic()
        },
        ..SimConfig::default()
    };

    let workers = 4;
    let target = 60;
    println!(
        "running {workers} concurrent workers until the ledger holds {target} transactions..."
    );
    let run = run_async(
        &nodes,
        &cfg,
        build,
        workers,
        target,
        &AsyncOptions::default(),
    );

    println!(
        "\nledger: {} transactions, {} tips, {} gate-rejected attempts",
        run.tangle.len(),
        run.tangle.tip_count(),
        run.discarded
    );
    let max_stale = run
        .events
        .iter()
        .map(|e| e.tangle_len - e.snapshot_len - 1)
        .max()
        .unwrap_or(0);
    let mean_stale: f64 = run
        .events
        .iter()
        .map(|e| (e.tangle_len - e.snapshot_len - 1) as f64)
        .sum::<f64>()
        / run.events.len().max(1) as f64;
    println!(
        "staleness (transactions published between a node's snapshot and its own publish): \
         mean {mean_stale:.2}, max {max_stale}"
    );
    let by_worker: Vec<usize> = (0..workers)
        .map(|w| run.events.iter().filter(|e| e.worker == w).count())
        .collect();
    println!("publications per worker: {by_worker:?}");
}
