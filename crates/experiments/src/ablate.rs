//! Ablations of the design choices DESIGN.md calls out, on the fast blob
//! task: §III-E defense on/off under attack, walk randomness α, the §VI
//! accuracy-biased walk and lossy, delayed networks.

use crate::common::{print_series_table, run_tangle, sim_config, write_json, Opts};
use learning_tangle::{assign_malicious, AttackKind, Simulation, TangleHyperParams};
use tinynn::Sequential;

fn dataset(seed: u64) -> feddata::FederatedDataset {
    feddata::blobs::generate(
        &feddata::blobs::BlobsConfig {
            users: 30,
            samples_per_user: (24, 36),
            noise_std: 0.7,
            ..feddata::blobs::BlobsConfig::default()
        },
        seed,
    )
}

fn build() -> Sequential {
    tinynn::zoo::mlp(8, &[16], 4, &mut tinynn::rng::seeded(5))
}

/// Run all ablations.
pub fn run(opts: &Opts) {
    defense(opts);
    alpha(opts);
    accuracy_bias(opts);
    network(opts);
}

/// §VI outlook: convergence under lossy, delayed network conditions.
fn network(opts: &Opts) {
    let data = dataset(opts.seed ^ 4);
    let mut logs = Vec::new();
    for (label, net) in [
        ("net-ideal", None),
        (
            "net-delay3-loss20",
            Some(learning_tangle::NetworkModel {
                max_delay_rounds: 3,
                publish_loss: 0.2,
            }),
        ),
        (
            "net-delay6-loss50",
            Some(learning_tangle::NetworkModel {
                max_delay_rounds: 6,
                publish_loss: 0.5,
            }),
        ),
    ] {
        let hyper = TangleHyperParams {
            reference_avg: 3,
            ..TangleHyperParams::basic()
        };
        let mut cfg = sim_config(10, 0.15, opts.seed, hyper);
        cfg.network = net;
        let sim = Simulation::new(data.clone(), cfg, build);
        let (log, sim) = run_tangle(sim, 30, 5, label, None, true);
        println!("  [{label}] lost publications: {}", sim.lost_publications());
        logs.push(log);
    }
    print_series_table(
        "Ablation: real-world network conditions (delay + publish loss)",
        &logs,
    );
    write_json(&opts.out, "ablation_network", &logs);
}

/// §III-E defense on vs off under 25% random-noise poisoning.
fn defense(opts: &Opts) {
    let data = dataset(opts.seed);
    let nodes = 10;
    let pre = 20u64;
    let attack = 20u64;
    let mut logs = Vec::new();
    for (label, validation) in [("defense-on", true), ("defense-off", false)] {
        let hyper = TangleHyperParams {
            sample_size: if validation { nodes } else { 2 },
            reference_avg: 5,
            alpha: 0.5,
            tip_validation: validation,
            ..TangleHyperParams::basic()
        };
        let mut sim = Simulation::new(
            data.clone(),
            sim_config(nodes, 0.15, opts.seed, hyper),
            build,
        );
        assign_malicious(
            sim.nodes_mut(),
            0.25,
            pre + 1,
            AttackKind::RandomNoise,
            opts.seed,
            |_| None,
        );
        let (log, _) = run_tangle(sim, pre + attack, 4, label, None, true);
        logs.push(log);
    }
    print_series_table(
        "Ablation: §III-E tip validation under 25% noise poisoning (attack from round 21)",
        &logs,
    );
    write_json(&opts.out, "ablation_defense", &logs);
}

/// Walk randomness α sweep.
fn alpha(opts: &Opts) {
    let data = dataset(opts.seed ^ 1);
    let mut logs = Vec::new();
    for a in [0.0, 0.5, 5.0] {
        let hyper = TangleHyperParams {
            alpha: a,
            ..TangleHyperParams::basic()
        };
        let sim = Simulation::new(data.clone(), sim_config(10, 0.15, opts.seed, hyper), build);
        let (log, _) = run_tangle(sim, 30, 5, &format!("alpha-{a}"), None, true);
        logs.push(log);
    }
    print_series_table("Ablation: walk randomness α", &logs);
    write_json(&opts.out, "ablation_alpha", &logs);
}

/// §VI outlook: accuracy-biased walk vs plain weighted walk.
fn accuracy_bias(opts: &Opts) {
    let data = dataset(opts.seed ^ 3);
    let mut logs = Vec::new();
    for (label, bias) in [("walk-plain", 0.0), ("walk-acc-biased", 10.0)] {
        let hyper = TangleHyperParams {
            accuracy_bias: bias,
            reference_avg: 3,
            ..TangleHyperParams::basic()
        };
        let sim = Simulation::new(data.clone(), sim_config(10, 0.15, opts.seed, hyper), build);
        let (log, _) = run_tangle(sim, 30, 5, label, None, true);
        logs.push(log);
    }
    print_series_table("Ablation: §VI accuracy-biased random walk", &logs);
    write_json(&opts.out, "ablation_accuracy_bias", &logs);
}
