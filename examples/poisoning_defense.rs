//! Poisoning defense demo (paper §III-E / Fig. 5).
//!
//! A quarter of the population turns malicious halfway through training and
//! floods the network with random-noise models. We run the same attack
//! against the *basic* Algorithm 2 and against the §III-E defended variant
//! (sample many candidate tips, validate each locally, approve the best).
//!
//! ```text
//! cargo run --release --example poisoning_defense
//! ```

use tangle_learning::data::blobs::{self, BlobsConfig};
use tangle_learning::learning::{
    assign_malicious, AttackKind, SimConfig, Simulation, TangleHyperParams,
};
use tangle_learning::nn::rng::seeded;
use tangle_learning::nn::zoo::mlp;

const PRETRAIN: u64 = 20;
const ATTACK: u64 = 20;
const POISON_FRACTION: f64 = 0.25;

fn run(label: &str, defended: bool) {
    let data = blobs::generate(
        &BlobsConfig {
            users: 30,
            samples_per_user: (24, 36),
            noise_std: 0.7,
            ..BlobsConfig::default()
        },
        11,
    );
    let nodes = 10;
    let hyper = TangleHyperParams {
        sample_size: if defended { nodes } else { 2 },
        tip_validation: defended,
        reference_avg: 5,
        alpha: 0.5,
        ..TangleHyperParams::basic()
    };
    let cfg = SimConfig {
        nodes_per_round: nodes,
        lr: 0.15,
        eval_fraction: 0.5,
        seed: 3,
        hyper,
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(data, cfg, || mlp(8, &[16], 4, &mut seeded(1)));
    assign_malicious(
        sim.nodes_mut(),
        POISON_FRACTION,
        PRETRAIN + 1,
        AttackKind::RandomNoise,
        99,
        |_| None,
    );
    println!("\n--- {label} ---");
    for r in 1..=(PRETRAIN + ATTACK) {
        let stats = sim.round();
        if r % 4 == 0 {
            let ev = sim.evaluate(r);
            let marker = if r > PRETRAIN {
                "  << under attack"
            } else {
                ""
            };
            println!(
                "round {r:>3}  acc {:.3}  poisoned-consensus {:>3.0}%  malicious-published {}{}",
                ev.accuracy,
                ev.reference_poisoned_fraction * 100.0,
                stats.malicious_published,
                marker
            );
        }
    }
}

fn main() {
    println!(
        "{}% of nodes flood the tangle with random models from round {}",
        (POISON_FRACTION * 100.0) as u32,
        PRETRAIN + 1
    );
    run("basic Algorithm 2 (no defense)", false);
    run("§III-E defense: sample + validate candidate tips", true);
}
