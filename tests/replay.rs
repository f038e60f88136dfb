//! Deterministic-replay regression tests: with span timings disabled, a
//! fixed seed must reproduce both the tangle structure and the telemetry
//! JSONL byte for byte.

use tangle_learning::data::blobs::{self, BlobsConfig};
use tangle_learning::learning::{SimConfig, Simulation, TangleHyperParams};
use tangle_learning::nn::rng::seeded;
use tangle_learning::nn::zoo::mlp;
use tangle_learning::nn::Sequential;
use tangle_learning::telemetry::{Event, JsonlSink, MemorySink, Telemetry};

fn dataset() -> tangle_learning::data::FederatedDataset {
    blobs::generate(
        &BlobsConfig {
            users: 8,
            samples_per_user: (24, 36),
            noise_std: 0.6,
            ..BlobsConfig::default()
        },
        55,
    )
}

fn build() -> Sequential {
    mlp(8, &[12], 4, &mut seeded(5))
}

fn cfg(seed: u64) -> SimConfig {
    SimConfig {
        nodes_per_round: 4,
        lr: 0.15,
        batch_size: 8,
        eval_fraction: 0.5,
        seed,
        hyper: TangleHyperParams::basic(),
        ..SimConfig::default()
    }
}

/// Tangle structure fingerprint: (issuer, round, parent ids) per tx.
fn structure(sim: &Simulation<'_>) -> Vec<(u64, u64, Vec<u32>)> {
    sim.tangle()
        .transactions()
        .iter()
        .map(|tx| {
            (
                tx.issuer,
                tx.round,
                tx.parents.iter().map(|p| p.index() as u32).collect(),
            )
        })
        .collect()
}

fn run_with_jsonl(seed: u64, path: &std::path::Path) -> Vec<(u64, u64, Vec<u32>)> {
    let sink = JsonlSink::create(path).expect("create jsonl");
    let mut sim = Simulation::new(dataset(), cfg(seed), build).with_telemetry(Telemetry::new(sink));
    for _ in 0..6 {
        sim.round();
    }
    structure(&sim)
}

#[test]
fn same_seed_reproduces_tangle_and_telemetry_bytes() {
    let dir = std::env::temp_dir();
    let p1 = dir.join("lt_replay_a.jsonl");
    let p2 = dir.join("lt_replay_b.jsonl");
    let s1 = run_with_jsonl(33, &p1);
    let s2 = run_with_jsonl(33, &p2);
    assert_eq!(s1, s2, "tangle structure must replay identically");
    let b1 = std::fs::read(&p1).expect("read first jsonl");
    let b2 = std::fs::read(&p2).expect("read second jsonl");
    assert!(!b1.is_empty(), "telemetry must produce output");
    assert_eq!(b1, b2, "telemetry JSONL must be byte-identical per seed");
    let _ = std::fs::remove_file(&p1);
    let _ = std::fs::remove_file(&p2);
}

#[test]
fn different_seeds_diverge() {
    let dir = std::env::temp_dir();
    let p1 = dir.join("lt_replay_c.jsonl");
    let p2 = dir.join("lt_replay_d.jsonl");
    let s1 = run_with_jsonl(33, &p1);
    let s2 = run_with_jsonl(34, &p2);
    assert_ne!(s1, s2, "different seeds should produce different ledgers");
    let _ = std::fs::remove_file(&p1);
    let _ = std::fs::remove_file(&p2);
}

#[test]
fn telemetry_events_cover_every_round_and_publication() {
    let sink = std::sync::Arc::new(MemorySink::new());
    let mut sim =
        Simulation::new(dataset(), cfg(21), build).with_telemetry(Telemetry::new(sink.clone()));
    let rounds = 5u64;
    let mut published = 0usize;
    let mut sampled = 0usize;
    for _ in 0..rounds {
        let stats = sim.round();
        published += stats.published;
        sampled += stats.sampled;
    }
    let events = sink.events();
    let round_events: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            Event::Round(r) => Some(r),
            _ => None,
        })
        .collect();
    let step_events: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            Event::Step(s) => Some(s),
            _ => None,
        })
        .collect();
    assert_eq!(
        round_events.len() as u64,
        rounds,
        "one Round event per round"
    );
    assert_eq!(
        step_events.len(),
        sampled,
        "one Step event per sampled node"
    );
    assert_eq!(
        step_events.iter().filter(|s| s.accepted).count(),
        published,
        "accepted Step events match published count"
    );
    // Round summaries agree with the simulator's own bookkeeping.
    let last = round_events.last().unwrap();
    assert_eq!(last.tangle_len, sim.tangle().len() as u64);
    assert_eq!(last.tip_count, sim.tangle().tip_count() as u64);
    assert_eq!(
        sim.telemetry().counter_value("sim.published") as usize,
        published
    );
    // The shared-context reference is reported with its score factors.
    assert!(
        round_events.iter().all(|r| !r.reference.is_empty()),
        "ideal-network rounds must report the reference set"
    );
}
