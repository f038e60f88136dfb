//! Decentralized learning on a genuine P2P gossip network, through a
//! partition and its heal (paper §VI: a "distributed implementation ...
//! considering faults introduced by real-world network conditions").
//!
//! Every peer keeps its *own* tangle replica, receives transactions over
//! lossy, latent links (buffering orphans that arrive before their
//! parents), and trains against its possibly-stale view. Mid-run the
//! network splits into two halves which keep learning independently; after
//! the heal, the pull-based repair protocol merges the sub-tangles.
//!
//! ```text
//! cargo run --release --example p2p_partition
//! ```

use tangle_learning::data::blobs::{self, BlobsConfig};
use tangle_learning::gossip::learn::GossipLearning;
use tangle_learning::gossip::{Latency, NetworkConfig, Topology};
use tangle_learning::learning::{SimConfig, TangleHyperParams};
use tangle_learning::nn::rng::seeded;
use tangle_learning::nn::zoo::mlp;

fn main() {
    let users = 12;
    let data = blobs::generate(
        &BlobsConfig {
            users,
            samples_per_user: (24, 36),
            noise_std: 0.7,
            ..BlobsConfig::default()
        },
        3,
    );
    println!("dataset: {}", data.summary());
    let cfg = SimConfig {
        lr: 0.15,
        batch_size: 8,
        seed: 11,
        hyper: TangleHyperParams {
            reference_avg: 3,
            ..TangleHyperParams::basic()
        },
        ..SimConfig::default()
    };
    let net = NetworkConfig {
        topology: Topology::RandomRegular { degree: 3 },
        latency: Latency { min: 1, max: 5 },
        loss: 0.05,
        pow_difficulty: 0,
        seed: 5,
        ..NetworkConfig::default()
    };
    let mut gl = GossipLearning::new(data, cfg, net, || mlp(8, &[16], 4, &mut seeded(1)));

    println!("\nphase 1: healthy network (40 activations)");
    gl.run(40);
    gl.network_mut().run_to_quiescence();
    let (_, acc) = gl.evaluate_peer(0);
    println!(
        "  peer 0 consensus accuracy {acc:.3}; replicas consistent: {}",
        gl.network().replicas_consistent()
    );

    println!("\nphase 2: network partitions into two halves (40 activations)");
    let groups: Vec<usize> = (0..users).map(|i| usize::from(i >= users / 2)).collect();
    gl.network_mut().partition(groups);
    gl.run(40);
    gl.network_mut().run_to_quiescence();
    let (_, a0) = gl.evaluate_peer(0);
    let (_, a1) = gl.evaluate_peer(users - 1);
    println!(
        "  side A sees {} txs (acc {a0:.3}), side B sees {} txs (acc {a1:.3}), consistent: {}",
        gl.network().peer(0).len(),
        gl.network().peer(users - 1).len(),
        gl.network().replicas_consistent()
    );

    println!("\nphase 3: heal + pull-based repair");
    gl.network_mut().heal();
    gl.network_mut().repair_to_quiescence(64);
    let (_, merged) = gl.evaluate_peer(0);
    println!(
        "  merged ledger: {} txs on every peer, consistent: {}, consensus accuracy {merged:.3}",
        gl.network().peer(0).len(),
        gl.network().replicas_consistent()
    );

    let s = gl.network().stats;
    println!(
        "\nnetwork totals: {} delivered, {} dropped (loss/partition), {} duplicates, {} orphaned",
        s.delivered, s.dropped, s.duplicates, s.orphaned
    );
    println!(
        "learning totals: {} published, {} rejected by the local gate",
        gl.published(),
        gl.discarded()
    );
}
