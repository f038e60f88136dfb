//! The degenerate conformance case, pinned as a tier-1 test: a
//! single-worker *scripted* asynchronous run must be byte-identical to
//! the round-based simulator on the same activation schedule — stats,
//! ledger structure, and raw telemetry JSONL alike. Any divergence means
//! the async snapshot/lock/cache path changed observable semantics.

use feddata::blobs::{self, BlobsConfig};
use learning_tangle::async_sim::run_async_scripted;
use learning_tangle::{Node, RoundStats, SimConfig, Simulation, TangleHyperParams};
use lt_telemetry::{JsonlSink, Telemetry};
use tinynn::rng::seeded;
use tinynn::Sequential;

fn dataset() -> feddata::FederatedDataset {
    blobs::generate(
        &BlobsConfig {
            users: 8,
            samples_per_user: (24, 32),
            noise_std: 0.6,
            ..BlobsConfig::default()
        },
        77,
    )
}

fn build() -> Sequential {
    tinynn::zoo::mlp(8, &[12], 4, &mut seeded(5))
}

fn cfg() -> SimConfig {
    SimConfig {
        nodes_per_round: 4,
        lr: 0.15,
        batch_size: 8,
        eval_fraction: 0.5,
        seed: 9,
        hyper: TangleHyperParams {
            confidence_samples: 6,
            ..TangleHyperParams::basic()
        },
        ..SimConfig::default()
    }
}

fn script() -> Vec<Vec<usize>> {
    vec![
        vec![0, 1, 2, 3],
        vec![4, 5, 6, 7],
        vec![1, 3, 5],
        vec![0, 2, 4, 6, 7],
        vec![7, 0],
        vec![2, 2, 5], // repeated activation in one round is legal
    ]
}

#[test]
fn scripted_async_run_is_byte_identical_to_round_sim() {
    let dir = std::env::temp_dir();

    // Round-based simulator.
    let sync_path = dir.join("lt_async_equiv_sync.jsonl");
    let sync_tel = Telemetry::new(JsonlSink::create(&sync_path).unwrap());
    let mut sim = Simulation::new(dataset(), cfg(), build).with_telemetry(sync_tel.clone());
    let sync_stats: Vec<RoundStats> = script().iter().map(|r| sim.round_with_nodes(r)).collect();

    // Scripted single-worker asynchronous simulator.
    let nodes: Vec<Node> = dataset()
        .clients
        .into_iter()
        .enumerate()
        .map(|(i, c)| Node::honest(i, c))
        .collect();
    let async_path = dir.join("lt_async_equiv_async.jsonl");
    let async_tel = Telemetry::new(JsonlSink::create(&async_path).unwrap());
    let (run, async_stats) =
        run_async_scripted(&nodes, &cfg(), build, &script(), async_tel.clone());

    assert_eq!(sync_stats, async_stats, "RoundStats must match");
    assert_eq!(
        sim.tangle().structure(),
        run.tangle.structure(),
        "ledger structure must match"
    );
    assert_eq!(run.killed, 0);
    let rejected: usize = sync_stats.iter().map(|s| s.sampled - s.published).sum();
    assert_eq!(run.discarded, rejected, "gate decisions must match");
    // Every publication saw the full previous-round ledger (round barrier).
    for e in &run.events {
        assert!(e.snapshot_len <= e.tangle_len);
    }

    // Analysis-cache behaviour must agree: one cached context per round,
    // never a rebuild.
    for counter in [
        "tangle.cache_hits",
        "tangle.cache_rebuilds",
        "tangle.cache_appends",
        "tangle.walks",
        "sim.published",
        "sim.rejected",
    ] {
        assert_eq!(
            sync_tel.counter_value(counter),
            async_tel.counter_value(counter),
            "counter {counter} must match"
        );
    }
    assert_eq!(sync_tel.counter_value("tangle.cache_hits"), 6);
    assert_eq!(sync_tel.counter_value("tangle.cache_rebuilds"), 0);

    let sync_bytes = std::fs::read(&sync_path).unwrap();
    let async_bytes = std::fs::read(&async_path).unwrap();
    let _ = std::fs::remove_file(&sync_path);
    let _ = std::fs::remove_file(&async_path);
    assert!(!sync_bytes.is_empty());
    assert_eq!(
        sync_bytes, async_bytes,
        "telemetry JSONL must be byte-identical"
    );
}

#[test]
#[should_panic(expected = "at least one node")]
fn scripted_round_rejects_empty_activation() {
    let mut sim = Simulation::new(dataset(), cfg(), build);
    sim.round_with_nodes(&[]);
}
