//! Extension experiment: the distributed (gossip) implementation under
//! real-world network conditions — the paper's §VI outlook, measured.
//!
//! Peers hold private replicas connected by a lossy random-regular
//! topology. We sweep message loss, track the consensus accuracy as seen
//! by one peer, and record replica divergence (spread of ledger sizes).

use crate::common::{print_series_table, write_json, Opts};
use learning_tangle::metrics::{MetricPoint, MetricsLog};
use learning_tangle::{SimConfig, TangleHyperParams};
use tangle_gossip::learn::GossipLearning;
use tangle_gossip::network::{Latency, NetworkConfig, Topology};

/// Run the gossip-network sweep.
pub fn run(opts: &Opts) {
    let data = feddata::blobs::generate(
        &feddata::blobs::BlobsConfig {
            users: 20,
            samples_per_user: (24, 36),
            noise_std: 0.7,
            ..feddata::blobs::BlobsConfig::default()
        },
        opts.seed,
    );
    println!("dataset: {}", data.summary());
    let build = || tinynn::zoo::mlp(8, &[16], 4, &mut tinynn::rng::seeded(5));
    let activations = opts.rounds.unwrap_or(120);
    let mut logs = Vec::new();
    for loss in [0.0, 0.2, 0.5] {
        let cfg = SimConfig {
            lr: 0.15,
            batch_size: 8,
            eval_fraction: 1.0,
            seed: opts.seed,
            hyper: TangleHyperParams {
                reference_avg: 3,
                ..TangleHyperParams::basic()
            },
            ..SimConfig::default()
        };
        let net = NetworkConfig {
            topology: Topology::RandomRegular { degree: 4 },
            latency: Latency { min: 1, max: 4 },
            loss,
            pow_difficulty: 0,
            seed: opts.seed ^ 0x90551,
            ..NetworkConfig::default()
        };
        let mut gl = GossipLearning::new(data.clone(), cfg, net, build);
        gl.set_telemetry(crate::common::telemetry());
        let label = format!("gossip-loss{:.0}%", loss * 100.0);
        println!("\n--- {label} ---");
        let mut log = MetricsLog::new(&label);
        let chunk = (activations / 6).max(1);
        let mut done = 0;
        while done < activations {
            gl.run(chunk.min(activations - done));
            done += chunk;
            let (l, acc) = gl.evaluate_peer(0);
            let lens: Vec<usize> = (0..gl.network().len())
                .map(|p| gl.network().peer(p).len())
                .collect();
            let (min, max) = (
                *lens.iter().min().expect("peers"),
                *lens.iter().max().expect("peers"),
            );
            log.push(MetricPoint {
                round: done,
                accuracy: acc,
                loss: l,
                target_misclassification: None,
                tips: Some(max - min), // replica divergence in the tips slot
            });
            println!(
                "  [{label}] activations {done:>4}  peer0-acc {acc:.3}  replica sizes {min}..{max}  dropped {}",
                gl.network().stats.dropped
            );
        }
        // drain the wires and let the pull-based repair protocol heal the
        // losses peer-to-peer (no omniscient anti-entropy oracle)
        gl.network_mut().repair_to_quiescence(64);
        let (l, acc) = gl.evaluate_peer(0);
        println!(
            "  [{label}] after repair: acc {acc:.3}, consistent: {}",
            gl.network().replicas_consistent()
        );
        log.push(MetricPoint {
            round: done + 1,
            accuracy: acc,
            loss: l,
            target_misclassification: None,
            tips: Some(0),
        });
        logs.push(log);
    }
    print_series_table(
        "Gossip network: peer-0 consensus accuracy vs message loss",
        &logs,
    );
    write_json(&opts.out, "gossipnet", &logs);
}
