//! Cross-executor, cross-process conformance: the same scripted schedule
//! driven through (a) the round simulator, (b) the in-process gossip
//! executor, and (c) a real 3-daemon localhost cluster must produce the
//! same ledger — byte-identical wire archives, bit-identical consensus
//! evaluation — and the networked ledger must satisfy every structural
//! invariant the conformance checker knows.

use learning_tangle::Simulation;
use lt_conformance::check_ledger_invariants;
use lt_net::{default_node_bin, Cluster, Preset, ORPHAN_CAP};
use std::path::PathBuf;
use tangle_gossip::learn::GossipLearning;
use tangle_gossip::{Latency, NetworkConfig, Peer, ReceiveOutcome, Topology, TxMessage};
use tinynn::rng::derive;

const NODES: usize = 3;
const SEED: u64 = 7;
const EVAL_SEED: u64 = 1;
/// The scripted activation schedule: entry `k` activates that peer at
/// global slot `k + 1`.
const SCHEDULE: [usize; 9] = [0, 1, 2, 2, 0, 1, 1, 2, 0];

fn preset() -> Preset {
    Preset {
        nodes: NODES,
        seed: SEED,
    }
}

fn node_bin() -> PathBuf {
    // resolved by cargo for integration tests; default_node_bin() is the
    // fallback for standalone harness use
    option_env!("CARGO_BIN_EXE_lt-node")
        .map(PathBuf::from)
        .unwrap_or_else(default_node_bin)
}

/// Wire-encode an archive for byte comparison.
fn encode_archive(msgs: &[TxMessage]) -> Vec<Vec<u8>> {
    msgs.iter().map(|m| m.encode().to_vec()).collect()
}

/// Run the schedule on the in-process gossip executor in lockstep (full
/// drain between activations). Returns every peer's archive and the
/// consensus evaluation bits.
fn gossip_run() -> (Vec<Vec<TxMessage>>, (u32, u32)) {
    let p = preset();
    let net_cfg = NetworkConfig {
        topology: Topology::FullMesh,
        latency: Latency { min: 1, max: 2 },
        loss: 0.0,
        pow_difficulty: 0,
        seed: derive(SEED, 0x6055),
        orphan_cap: ORPHAN_CAP,
    };
    let mut gl = GossipLearning::new(p.dataset(), p.sim_cfg(), net_cfg, Preset::build);
    for &peer in &SCHEDULE {
        gl.activate(peer);
        gl.network_mut().run_to_quiescence();
    }
    let archives = (0..NODES)
        .map(|i| gl.network().peer(i).export_messages())
        .collect();
    let (loss, acc) = gl.evaluate_consensus(0, EVAL_SEED);
    (archives, (loss.to_bits(), acc.to_bits()))
}

#[test]
fn daemons_agree_with_in_process_executors() {
    // --- executor (a): the round simulator, scripted one node per round
    let p = preset();
    let mut sim = Simulation::new(p.dataset(), p.sim_cfg(), Preset::build);
    for &peer in &SCHEDULE {
        sim.round_with_nodes(&[peer]);
    }
    let sim_eval = sim.evaluate(EVAL_SEED);

    // --- executor (b): the in-process gossip executor in lockstep
    let (gossip_archives, gossip_eval) = gossip_run();
    for (i, a) in gossip_archives.iter().enumerate() {
        assert_eq!(
            encode_archive(a),
            encode_archive(&gossip_archives[0]),
            "gossip replica {i} diverged"
        );
    }
    let archive = &gossip_archives[0];

    // --- executor (c): three lt-node daemons over localhost TCP
    let mut cluster = Cluster::spawn(&node_bin(), NODES, SEED, 0).expect("cluster up");
    let report = cluster.lockstep(&SCHEDULE).expect("lockstep run");
    assert_eq!(report.activations, SCHEDULE.len());
    let daemon_archives = cluster.archives().expect("archives");
    let daemon_evals = cluster
        .evaluate(SCHEDULE.len() as u64, EVAL_SEED)
        .expect("evals");
    cluster.shutdown().expect("clean shutdown");

    // every daemon replica is byte-identical with the gossip executor
    let want = encode_archive(archive);
    assert_eq!(want.len(), report.final_len - 1);
    for (i, a) in daemon_archives.iter().enumerate() {
        assert_eq!(
            encode_archive(a),
            want,
            "daemon {i} archive diverged from the in-process executor"
        );
    }

    // the gossip/daemon ledger matches the round simulator's tangle:
    // same insertion order, same structure, same parameter bytes
    let tangle = sim.tangle();
    assert_eq!(tangle.len(), archive.len() + 1, "sim ledger size");
    // content id of each insertion index (0 = genesis)
    let mut cid_of_index = vec![p.genesis().content_id()];
    cid_of_index.extend(archive.iter().map(|m| m.content_id()));
    for (j, msg) in archive.iter().enumerate() {
        let tx = &tangle.transactions()[j + 1];
        assert_eq!(tx.issuer, msg.issuer, "issuer of tx {j}");
        assert_eq!(tx.round, msg.slot, "slot of tx {j}");
        let sim_parents: Vec<_> = tx.parents.iter().map(|p| cid_of_index[p.index()]).collect();
        let mut msg_parents = msg.parents.clone();
        // the ledger collapses duplicate parents at insertion
        msg_parents.dedup();
        assert_eq!(sim_parents, msg_parents, "parents of tx {j}");
        let params = msg.decode_params().expect("payload decodes");
        assert_eq!(
            params.0, tx.payload.0,
            "parameter bytes of tx {j} diverged from the simulator"
        );
    }

    // consensus evaluation is bit-identical everywhere
    assert_eq!(
        gossip_eval,
        (sim_eval.loss.to_bits(), sim_eval.accuracy.to_bits()),
        "gossip vs sim evaluation"
    );
    for (i, &bits) in daemon_evals.iter().enumerate() {
        assert_eq!(bits, gossip_eval, "daemon {i} evaluation");
    }

    // rebuild a replica from the networked archive and run the full
    // structural invariant suite over it
    let mut rebuilt = Peer::new(0, &p.genesis(), 0).with_orphan_cap(ORPHAN_CAP);
    for msg in &daemon_archives[0] {
        assert_eq!(rebuilt.receive(msg), ReceiveOutcome::Accepted);
    }
    check_ledger_invariants(rebuilt.replica(), &p.sim_cfg())
        .expect("networked ledger violates a conformance invariant");
}

/// The N-daemon harness under concurrent (non-lockstep) traffic still
/// converges, reports throughput, and its socket-level accounting is
/// self-consistent.
#[test]
fn throughput_harness_converges_and_reports() {
    let mut cluster = Cluster::spawn(&node_bin(), NODES, SEED, 0).expect("cluster up");
    let report = cluster.throughput(3).expect("throughput run");
    assert_eq!(report.activations, 3 * NODES);
    assert!(report.published > 0, "someone must publish");
    assert_eq!(report.final_len, 1 + report.published as usize);
    assert!(report.activations_per_sec() > 0.0);
    // all replicas hold the same transaction set afterwards (insertion
    // order legitimately differs between replicas under concurrency)
    let archives = cluster.archives().expect("archives");
    let mut want = encode_archive(&archives[0]);
    want.sort();
    assert_eq!(want.len(), report.published as usize);
    for a in &archives[1..] {
        let mut got = encode_archive(a);
        got.sort();
        assert_eq!(got, want);
    }
    cluster.shutdown().expect("clean shutdown");
}
