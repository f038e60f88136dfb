//! Ground-truth test: the telemetry counters the gossip network records
//! must exactly match its own [`NetStats`] bookkeeping — on a lossy,
//! high-diameter topology where drops, orphans, and duplicates all occur.

use feddata::blobs::{self, BlobsConfig};
use learning_tangle::{SimConfig, TangleHyperParams};
use lt_telemetry::{NoopSink, Telemetry};
use tangle_gossip::learn::GossipLearning;
use tangle_gossip::network::{Latency, NetworkConfig, Topology};
use tinynn::Sequential;

fn data(users: usize) -> feddata::FederatedDataset {
    blobs::generate(
        &BlobsConfig {
            users,
            samples_per_user: (24, 32),
            noise_std: 0.6,
            ..BlobsConfig::default()
        },
        23,
    )
}

fn build() -> Sequential {
    tinynn::zoo::mlp(8, &[12], 4, &mut tinynn::rng::seeded(5))
}

fn cfg() -> SimConfig {
    SimConfig {
        lr: 0.15,
        batch_size: 8,
        seed: 31,
        hyper: TangleHyperParams {
            reference_avg: 3,
            ..TangleHyperParams::basic()
        },
        ..SimConfig::default()
    }
}

fn assert_counters_match_stats(gl: &GossipLearning<'_>, tel: &Telemetry) {
    let stats = gl.network().stats;
    assert_eq!(
        tel.counter_value("gossip.delivered"),
        stats.delivered,
        "delivered counter out of sync"
    );
    assert_eq!(
        tel.counter_value("gossip.dropped"),
        stats.dropped,
        "dropped counter out of sync"
    );
    assert_eq!(
        tel.counter_value("gossip.duplicates"),
        stats.duplicates,
        "duplicates counter out of sync"
    );
    assert_eq!(
        tel.counter_value("gossip.orphaned"),
        stats.orphaned,
        "orphaned counter out of sync"
    );
    assert_eq!(
        tel.counter_value("gossip.published"),
        gl.published(),
        "published counter out of sync"
    );
    assert_eq!(
        tel.counter_value("gossip.discarded"),
        gl.discarded(),
        "discarded counter out of sync"
    );
    assert_eq!(
        tel.counter_value("gossip.rejected"),
        stats.rejected,
        "rejected counter out of sync"
    );
    assert_eq!(
        tel.counter_value("gossip.rerequests"),
        stats.rerequests,
        "rerequests counter out of sync"
    );
    assert_eq!(
        tel.counter_value("gossip.announced"),
        stats.announced,
        "announced counter out of sync"
    );
    assert_eq!(
        tel.counter_value("gossip.requested"),
        stats.requested,
        "requested counter out of sync"
    );
    assert_eq!(
        tel.counter_value("gossip.orphan_evictions"),
        stats.evicted,
        "eviction counter out of sync"
    );
    assert_eq!(
        tel.counter_value("fault.discarded"),
        stats.discarded,
        "fault.discarded counter out of sync"
    );
}

#[test]
fn counters_match_netstats_on_lossy_ring() {
    let tel = Telemetry::new(NoopSink);
    let mut gl = GossipLearning::new(
        data(6),
        cfg(),
        NetworkConfig {
            topology: Topology::Ring,
            latency: Latency { min: 1, max: 6 },
            loss: 0.3,
            pow_difficulty: 0,
            seed: 11,
            ..NetworkConfig::default()
        },
        build,
    );
    gl.set_telemetry(tel.clone());
    gl.run(30);
    gl.network_mut().run_to_quiescence();
    let stats = gl.network().stats;
    assert!(stats.delivered > 0, "ring gossip must deliver messages");
    assert!(stats.dropped > 0, "30% loss must drop messages");
    assert!(stats.announced > 0, "first-seen bodies must be announced");
    assert!(stats.requested > 0, "on a ring most bodies are pulled");
    assert!(stats.rerequests > 0, "30% loss must cost retries");
    assert_counters_match_stats(&gl, &tel);
}

/// What the counters are counters *of*: on a healthy network every peer
/// gets every body exactly once, a first request is what fetches a body
/// its issuer did not push, and every first-seen body is announced to
/// every neighbour but the one it came from.
#[test]
fn announced_and_requested_add_up_on_a_healthy_ring() {
    let tel = Telemetry::new(NoopSink);
    let mut gl = GossipLearning::new(
        data(6),
        cfg(),
        NetworkConfig {
            topology: Topology::Ring,
            latency: Latency { min: 1, max: 3 },
            seed: 11,
            ..NetworkConfig::default()
        },
        build,
    );
    gl.set_telemetry(tel.clone());
    gl.run(30);
    gl.network_mut().run_to_quiescence();
    let stats = gl.network().stats;
    let published = gl.published();
    assert!(published > 0);
    assert!(gl.network().replicas_consistent());
    assert_eq!(stats.dropped + stats.rejected + stats.discarded, 0);
    // 5 receivers per transaction, each exactly once, bar the races in
    // which a body asked for twice is also answered twice
    assert_eq!(stats.delivered - stats.duplicates, 5 * published);
    // 2 of them are pushed to (the issuer's neighbours), 3 must ask
    assert_eq!(
        stats.requested + stats.rerequests - stats.duplicates,
        3 * published
    );
    // degree 2: each of the 5 receivers tells its one other neighbour
    assert_eq!(stats.announced, 5 * published);
    assert_counters_match_stats(&gl, &tel);
}

#[test]
fn counters_match_netstats_across_partition_and_heal() {
    let tel = Telemetry::new(NoopSink);
    let mut gl = GossipLearning::new(data(6), cfg(), NetworkConfig::default(), build);
    gl.set_telemetry(tel.clone());
    gl.run(8);
    gl.network_mut().run_to_quiescence();
    // Partition drops create the partition-crossing code path.
    gl.network_mut().partition(vec![0, 0, 0, 1, 1, 1]);
    gl.run(12);
    gl.network_mut().run_to_quiescence();
    let stats = gl.network().stats;
    assert!(stats.dropped > 0, "partition must drop crossings");
    assert!(stats.duplicates > 0, "mesh flooding must create duplicates");
    gl.network_mut().heal();
    gl.network_mut().anti_entropy();
    assert_counters_match_stats(&gl, &tel);
}

#[test]
fn disabled_telemetry_changes_nothing() {
    // Two identical runs, one observed, one not: the simulated network
    // must evolve identically (instrumentation is passive).
    let run = |observe: bool| {
        let mut gl = GossipLearning::new(data(6), cfg(), NetworkConfig::default(), build);
        if observe {
            gl.set_telemetry(Telemetry::new(NoopSink));
        }
        gl.run(20);
        gl.network_mut().run_to_quiescence();
        let s = gl.network().stats;
        (
            s.delivered,
            s.dropped,
            s.duplicates,
            s.orphaned,
            gl.published(),
        )
    };
    assert_eq!(run(false), run(true));
}
