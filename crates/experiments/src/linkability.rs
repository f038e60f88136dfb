//! Extension experiment: update linkability and the differential-privacy
//! mitigation (paper §III-D / reference \[6\]).
//!
//! The paper leaves "the relatedness of transactions published by the same
//! participant" to future work and points to DP noise as the mitigation.
//! We run the measurement: train a tangle, then (a) quantify how much more
//! similar same-issuer updates are than cross-issuer ones and (b) run the
//! linkability attack (nearest-update issuer guessing) — swept over the DP
//! noise level.

use crate::common::{sim_config, Opts};
use learning_tangle::dp::DpConfig;
use learning_tangle::privacy::{linkability_attack_accuracy, linkability_report};
use learning_tangle::{Simulation, TangleHyperParams};

/// Run the linkability sweep.
pub fn run(opts: &Opts) {
    let data = feddata::blobs::generate(
        &feddata::blobs::BlobsConfig {
            users: 16,
            samples_per_user: (24, 36),
            noise_std: 0.7,
            label_skew_alpha: Some(0.3), // strong skew = strong per-node signature
            ..feddata::blobs::BlobsConfig::default()
        },
        opts.seed,
    );
    println!("dataset: {}", data.summary());
    let build = || tinynn::zoo::mlp(8, &[16], 4, &mut tinynn::rng::seeded(5));
    let rounds = opts.rounds.unwrap_or(40);
    println!(
        "\n{:<14} {:>12} {:>12} {:>9} {:>14} {:>10}",
        "dp-sigma", "same-issuer", "cross-issuer", "signal", "attack-acc", "accuracy"
    );
    let chance = 1.0 / data.num_clients() as f32;
    for sigma in [0.0f32, 0.001, 0.01, 0.05] {
        let hyper = TangleHyperParams {
            reference_avg: 3,
            ..TangleHyperParams::basic()
        };
        let mut sim = Simulation::new(data.clone(), sim_config(8, 0.15, opts.seed, hyper), build);
        if sigma > 0.0 {
            sim = sim.with_dp(DpConfig {
                clip_norm: 10.0,
                sigma,
            });
        }
        for _ in 0..rounds {
            sim.round();
        }
        let report = linkability_report(sim.tangle());
        let (attack, decisions) = linkability_attack_accuracy(sim.tangle());
        let acc = sim.evaluate(0).accuracy;
        println!(
            "{:<14} {:>12.3} {:>12.3} {:>9.3} {:>8.3} ({:>3}) {:>10.3}",
            format!("{sigma}"),
            report.same_issuer_mean,
            report.cross_issuer_mean,
            report.signal(),
            attack,
            decisions,
            acc
        );
    }
    println!("(attack chance level ≈ {chance:.3}; higher sigma should push attack-acc toward it)");
}
