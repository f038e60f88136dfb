//! Quickstart: decentralized learning on a tangle vs centralized FedAvg.
//!
//! Twenty clients hold non-IID slices of an easy classification task. We
//! train the same MLP two ways — through a FedAvg server and through a
//! learning tangle — and watch both converge.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use tangle_learning::baseline::{FedAvg, FedAvgConfig};
use tangle_learning::data::blobs::{self, BlobsConfig};
use tangle_learning::learning::{SimConfig, Simulation, TangleHyperParams};
use tangle_learning::nn::rng::seeded;
use tangle_learning::nn::zoo::mlp;

fn main() {
    let data = blobs::generate(
        &BlobsConfig {
            users: 20,
            samples_per_user: (24, 40),
            noise_std: 0.7,
            ..BlobsConfig::default()
        },
        42,
    );
    println!("dataset: {}", data.summary());
    let build = || mlp(8, &[16], 4, &mut seeded(1));

    // --- Centralized baseline -------------------------------------------
    let mut fedavg = FedAvg::new(
        &data,
        FedAvgConfig {
            nodes_per_round: 5,
            lr: 0.15,
            seed: 7,
            ..FedAvgConfig::default()
        },
        build,
    );

    // --- Learning tangle -------------------------------------------------
    let cfg = SimConfig {
        nodes_per_round: 5,
        lr: 0.15,
        eval_fraction: 0.5,
        seed: 7,
        hyper: TangleHyperParams {
            reference_avg: 3,
            ..TangleHyperParams::basic()
        },
        ..SimConfig::default()
    };
    let mut tangle = Simulation::new(data.clone(), cfg, build);

    println!(
        "\n{:>6} {:>10} {:>10} {:>8}",
        "round", "fedavg", "tangle", "tips"
    );
    for r in 1..=30u64 {
        fedavg.round();
        let stats = tangle.round();
        if r % 5 == 0 {
            let (_, fa) = fedavg.evaluate(0.5, r);
            let tg = tangle.evaluate(r).accuracy;
            println!("{r:>6} {fa:>10.3} {tg:>10.3} {:>8}", stats.tips);
        }
    }
    println!(
        "\ntangle holds {} transactions; consensus model has {} parameters",
        tangle.tangle().len(),
        tangle.consensus_params().len()
    );
}
