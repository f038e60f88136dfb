//! Poisoning-starvation conformance (§III-E): with 30% label-flipping
//! attackers and tip validation enabled, malicious transactions must be
//! starved of approvals. The property is checked in **both** executors of
//! the protocol semantics — the pure reference model ([`StubSim`]) and
//! the real [`Simulation`] — driven through the same activation schedule,
//! and the two must agree: no malicious transaction's tip-approval
//! fraction reaches the confirmation threshold in either.

use learning_tangle::{assign_malicious, AttackKind, SimConfig, Simulation, TangleHyperParams};
use lt_conformance::{Schedule, StructModel, StubSim};
use tangle_ledger::analysis::TangleAnalysis;
use tangle_ledger::walk::RandomWalk;
use tinynn::rng::seeded;
use tinynn::Sequential;

/// A malicious transaction approved by ≥90% of tips would be on the verge
/// of confirmation — starvation means staying clearly below that.
const THRESHOLD: f64 = 0.9;

const NODES: usize = 10;
const FLIP_SRC: u32 = 0;
const FLIP_DST: u32 = 1;

fn dataset() -> feddata::FederatedDataset {
    feddata::blobs::generate(
        &feddata::blobs::BlobsConfig {
            users: NODES,
            samples_per_user: (20, 28),
            noise_std: 0.6,
            ..feddata::blobs::BlobsConfig::default()
        },
        101,
    )
}

fn build() -> Sequential {
    tinynn::zoo::mlp(8, &[10], 4, &mut seeded(5))
}

fn cfg() -> SimConfig {
    SimConfig {
        nodes_per_round: 4,
        lr: 0.2,
        batch_size: 8,
        eval_fraction: 0.5,
        seed: 13,
        hyper: TangleHyperParams {
            confidence_samples: 8,
            sample_size: 4,
            tip_validation: true, // the §III-E defense under test
            ..TangleHyperParams::basic()
        },
        ..SimConfig::default()
    }
}

/// Max tip-approval fraction over malicious-issued transactions, computed
/// exactly by the reference model on an arbitrary ledger structure.
fn max_malicious_approval(views: &[tangle_ledger::TxView], malicious: &[usize]) -> f64 {
    let approval = StructModel::new(views)
        .expect("executor ledger well-formed")
        .tip_approval();
    views
        .iter()
        .zip(&approval)
        .filter(|(v, _)| v.issuer != u64::MAX && malicious.contains(&(v.issuer as usize)))
        .map(|(_, &a)| a)
        .fold(0.0, f64::max)
}

#[test]
fn label_flip_attackers_are_starved_in_model_and_simulation() {
    // One seeded schedule drives both executors.
    let rounds = Schedule::generate(29, NODES, 40).rounds();
    assert!(rounds.len() >= 4, "schedule must contain real work");

    // Real simulator under attack, defense on.
    let mut sim = Simulation::new(dataset(), cfg(), build);
    let malicious = assign_malicious(
        sim.nodes_mut(),
        0.3,
        0, // malicious from the first round: no benign pre-training grace
        AttackKind::LabelFlip {
            src: FLIP_SRC,
            dst: FLIP_DST,
        },
        77,
        learning_tangle::attack::default_flip_source(FLIP_SRC, FLIP_DST),
    );
    assert_eq!(malicious.len(), 3, "30% of 10 nodes");
    for r in &rounds {
        sim.round_with_nodes(r);
    }

    // Reference model under the same schedule and attacker set.
    let mut stub = StubSim::new(NODES, &malicious, cfg().hyper.num_tips);
    for r in &rounds {
        stub.round_with_nodes(r);
    }

    // The attack must actually be exercised, and honest progress made.
    let views = sim.tangle().structure();
    assert!(views.len() > 10, "honest learning must have progressed");
    let honest_published = views
        .iter()
        .any(|v| v.issuer != u64::MAX && !malicious.contains(&(v.issuer as usize)));
    assert!(honest_published);
    assert!(
        stub.views().len() > rounds.len(),
        "stub attackers always publish, so the model ledger must grow"
    );

    // Starvation, exactly, in both executors.
    let sim_max = max_malicious_approval(&views, &malicious);
    let stub_max = stub.max_malicious_approval();
    assert!(
        sim_max < THRESHOLD,
        "simulation: a malicious tx reached tip-approval {sim_max}"
    );
    assert!(
        stub_max < THRESHOLD,
        "reference model: a malicious tx reached tip-approval {stub_max}"
    );

    // And through the production estimator: the sampled approval
    // confidence the consensus layer actually uses must agree that no
    // malicious transaction approaches confirmation.
    let analysis = TangleAnalysis::compute(sim.tangle());
    let walk = RandomWalk::new(cfg().hyper.alpha).table(sim.tangle(), &analysis.cumulative_weight);
    let conf = walk.approval_confidence(sim.tangle(), 64, 0xF00D);
    let sampled_max = views
        .iter()
        .zip(&conf)
        .filter(|(v, _)| v.issuer != u64::MAX && malicious.contains(&(v.issuer as usize)))
        .map(|(_, &c)| c as f64)
        .fold(0.0, f64::max);
    assert!(
        sampled_max < THRESHOLD,
        "sampled approval confidence: malicious tx at {sampled_max}"
    );
}

/// Control: the starvation bound is not vacuous — in an all-honest run,
/// honest transactions gather broad exact tip approval and cross the
/// threshold under the confirmation-style (weight-greedy) estimator.
#[test]
fn honest_transactions_do_get_confirmed() {
    let rounds = Schedule::generate(29, NODES, 40).rounds();
    let mut sim = Simulation::new(dataset(), cfg(), build);
    for r in &rounds {
        sim.round_with_nodes(r);
    }
    let views = sim.tangle().structure();
    let approval = StructModel::new(&views).unwrap().tip_approval();
    let max_honest = views
        .iter()
        .zip(&approval)
        .filter(|(v, _)| v.issuer != u64::MAX)
        .map(|(_, &a)| a)
        .fold(0.0, f64::max);
    assert!(max_honest > 0.5, "honest txs must gather broad approval");
    // The confirmation-style estimate (weight-greedy walk, as used when
    // checking finality) does push honest transactions past the threshold
    // the attackers never reach.
    let analysis = TangleAnalysis::compute(sim.tangle());
    let walk = RandomWalk::new(0.5).table(sim.tangle(), &analysis.cumulative_weight);
    let conf = walk.approval_confidence(sim.tangle(), 64, 0xF00D);
    let max_conf = views
        .iter()
        .zip(&conf)
        .filter(|(v, _)| v.issuer != u64::MAX)
        .map(|(_, &c)| c as f64)
        .fold(0.0, f64::max);
    assert!(
        max_conf >= THRESHOLD,
        "weight-greedy approval confidence only reached {max_conf}"
    );
}
