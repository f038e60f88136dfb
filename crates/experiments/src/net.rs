//! Multi-process networking experiment: spawn N local `lt-node` daemons,
//! verify that a scripted lockstep schedule byte-agrees with the
//! in-process gossip executor, then drive sustained publish traffic and
//! report throughput, socket-level frame/byte totals, and peer RTT.
//!
//! With `--soak-secs=N` the experiment instead runs a long-haul chaos
//! soak: rolling link faults (partitions, latency, corruption, resets)
//! plus supervised SIGKILL + checkpoint-restore cycles, asserting that
//! the cluster reconverges through the real repair protocol and that
//! every final archive passes the full conformance invariant suite.
//!
//! This is the wire-protocol counterpart of the `gossipnet` extension:
//! the same protocol, but over real TCP sockets, one process per peer.

use crate::common::Opts;
use lt_conformance::check_ledger_invariants;
use lt_net::{default_node_bin, run_soak, Cluster, Preset, SoakConfig, ORPHAN_CAP};
use std::io::Write;
use tangle_gossip::learn::GossipLearning;
use tangle_gossip::network::{Latency, NetworkConfig, Topology};
use tangle_gossip::{Peer, ReceiveOutcome};
use tinynn::rng::{derive, seeded};

/// Run the networking experiment.
pub fn run(opts: &Opts) {
    if let Some(secs) = opts.soak_secs {
        soak(opts, secs);
        return;
    }
    let nodes = opts.nodes.unwrap_or(3);
    let per_node = opts.rounds.unwrap_or(20) as usize;
    let seed = opts.seed;
    let bin = default_node_bin();
    println!("lt-node binary: {}", bin.display());
    println!("preset: nodes={nodes} seed={seed}");

    // --- phase 1: lockstep agreement with the in-process executor
    let schedule: Vec<usize> = {
        use rand::RngExt;
        let mut rng = seeded(derive(seed, 0x5C4E_D01E));
        (0..3 * nodes).map(|_| rng.random_range(0..nodes)).collect()
    };
    let preset = Preset { nodes, seed };
    let mut gl = GossipLearning::new(
        preset.dataset(),
        preset.sim_cfg(),
        NetworkConfig {
            topology: Topology::FullMesh,
            latency: Latency { min: 1, max: 2 },
            loss: 0.0,
            pow_difficulty: 0,
            seed: derive(seed, 0x6055),
            orphan_cap: ORPHAN_CAP,
        },
        Preset::build,
    );
    for &p in &schedule {
        gl.activate(p);
        gl.network_mut().run_to_quiescence();
    }
    let oracle: Vec<Vec<u8>> = gl
        .network()
        .peer(0)
        .export_messages()
        .iter()
        .map(|m| m.encode().to_vec())
        .collect();

    let mut cluster = Cluster::spawn(&bin, nodes, seed, 0).expect("spawn cluster");
    let lockstep = cluster.lockstep(&schedule).expect("lockstep run");
    let archives = cluster.archives().expect("fetch archives");
    let agree = archives.iter().all(|a| {
        a.iter()
            .map(|m| m.encode().to_vec())
            .collect::<Vec<_>>()
            .eq(&oracle)
    });
    cluster.shutdown().expect("shutdown lockstep cluster");
    println!(
        "\n=== lockstep ({} activations over {} daemons) ===",
        lockstep.activations, nodes
    );
    println!("  published       {:>8}", lockstep.published);
    println!("  final ledger    {:>8}", lockstep.final_len);
    println!(
        "  oracle agreement {:>7}",
        if agree { "BYTE-EQ" } else { "DIVERGED" }
    );
    assert!(agree, "daemon archives diverged from the in-process oracle");

    // --- phase 2: sustained concurrent publish traffic, pings on
    let mut cluster = Cluster::spawn(&bin, nodes, seed, 25).expect("spawn cluster");
    let report = cluster.throughput(per_node).expect("throughput run");
    cluster.shutdown().expect("shutdown throughput cluster");
    println!(
        "\n=== throughput ({} activations/daemon, {} daemons) ===",
        per_node, nodes
    );
    println!("  wall            {:>10.2?}", report.wall);
    println!("  drain           {:>10.2?}", report.drain);
    println!("  activations/s   {:>10.1}", report.activations_per_sec());
    println!(
        "  published       {:>10} ({} discarded)",
        report.published,
        report.activations as u64 - report.published
    );
    println!(
        "  frames sent/recv{:>10} / {}",
        report.frames_sent, report.frames_recv
    );
    println!(
        "  bytes sent/recv {:>10} / {}",
        report.bytes_sent, report.bytes_recv
    );
    println!(
        "  conn lost/rejected{:>8} / {}",
        report.conn_lost, report.rejected
    );
    match report.mean_rtt_us() {
        Some(rtt) => println!(
            "  mean RTT        {:>10.0} us ({} pings)",
            rtt, report.rtt.0
        ),
        None => println!("  mean RTT        {:>10}", "-"),
    }

    // artifact for the paper repo's results directory
    std::fs::create_dir_all(&opts.out).expect("create output dir");
    let path = opts.out.join("net.json");
    let json = format!(
        concat!(
            "{{\n",
            "  \"nodes\": {},\n",
            "  \"seed\": {},\n",
            "  \"lockstep\": {{ \"activations\": {}, \"published\": {}, ",
            "\"final_len\": {}, \"oracle_agreement\": {} }},\n",
            "  \"throughput\": {{ \"activations\": {}, \"published\": {}, ",
            "\"wall_us\": {}, \"drain_us\": {}, \"activations_per_sec\": {:.2}, ",
            "\"frames_sent\": {}, \"frames_recv\": {}, ",
            "\"bytes_sent\": {}, \"bytes_recv\": {}, ",
            "\"conn_lost\": {}, \"rejected\": {}, ",
            "\"rtt_count\": {}, \"rtt_sum_us\": {} }}\n",
            "}}\n"
        ),
        nodes,
        seed,
        lockstep.activations,
        lockstep.published,
        lockstep.final_len,
        agree,
        report.activations,
        report.published,
        report.wall.as_micros(),
        report.drain.as_micros(),
        report.activations_per_sec(),
        report.frames_sent,
        report.frames_recv,
        report.bytes_sent,
        report.bytes_recv,
        report.conn_lost,
        report.rejected,
        report.rtt.0,
        report.rtt.1,
    );
    let mut f = std::fs::File::create(&path).expect("create net.json");
    f.write_all(json.as_bytes()).expect("write net.json");
    println!("  wrote {}", path.display());
}

/// The chaos soak: N daemons, `secs` seconds of publish traffic under a
/// rolling fault schedule, then heal, reconverge, and audit.
fn soak(opts: &Opts, secs: u64) {
    let nodes = opts.nodes.unwrap_or(4);
    let seed = opts.seed;
    let bin = default_node_bin();
    let ckpt_dir = opts.out.join("soak-ckpt");
    let cfg = SoakConfig::new(nodes, seed, secs * 1000, opts.chaos_seed, &ckpt_dir);
    println!("lt-node binary: {}", bin.display());
    println!(
        "soak: nodes={nodes} seed={seed} duration={secs}s chaos-seed={} \
         ({} link faults, {} kill/restore cycles)",
        opts.chaos_seed,
        cfg.chaos.links.len(),
        cfg.chaos.kills.len(),
    );

    let (report, archives) = run_soak(&bin, &cfg).expect("soak run");

    // Rebuild a replica from every daemon's archive and run the full
    // conformance invariant suite over each — the soak is only a pass if
    // the ledgers that survived the chaos are *structurally* sound, not
    // merely equal to each other.
    let p = Preset { nodes, seed };
    let genesis = p.genesis();
    let mut invariants_ok = true;
    for (i, archive) in archives.iter().enumerate() {
        let mut rebuilt = Peer::new(0, &genesis, 0).with_orphan_cap(ORPHAN_CAP);
        for msg in archive {
            if rebuilt.receive(msg) != ReceiveOutcome::Accepted {
                println!("  daemon {i}: archive replay rejected a message");
                invariants_ok = false;
            }
        }
        if let Err(v) = check_ledger_invariants(rebuilt.replica(), &p.sim_cfg()) {
            println!("  daemon {i}: invariant violation: {v:?}");
            invariants_ok = false;
        }
    }

    let yn = |b: bool| if b { "yes" } else { "NO" };
    println!("\n=== soak ({nodes} daemons, {secs}s under rolling chaos) ===");
    println!("  activations     {:>8}", report.activations);
    println!("  published       {:>8}", report.published);
    println!("  skipped (down)  {:>8}", report.skipped_down);
    println!(
        "  kills/respawns  {:>8} / {}",
        report.kills, report.respawns
    );
    println!(
        "  converged       {:>8} ({} ms after heal)",
        yn(report.converged),
        report.converge_ms
    );
    println!("  final ledger    {:>8}", report.final_len);
    println!(
        "  repair quiesced {:>8} ({} rerequests total)",
        yn(report.repair_quiescent),
        report.rerequests
    );
    println!("  archives agree  {:>8}", yn(report.archives_agree));
    println!("  invariants      {:>8}", yn(invariants_ok));

    // results/soak.json: the full report plus the audit verdict, with the
    // embedded ChaosPlan making the run reproducible from its seeds
    std::fs::create_dir_all(&opts.out).expect("create output dir");
    let path = opts.out.join("soak.json");
    let json = report.to_json().replacen(
        "{\n",
        &format!("{{\n  \"invariants_ok\": {invariants_ok},\n"),
        1,
    );
    let mut f = std::fs::File::create(&path).expect("create soak.json");
    f.write_all(json.as_bytes()).expect("write soak.json");
    println!("  wrote {}", path.display());

    assert!(report.converged, "soak did not reconverge after the heal");
    assert!(report.archives_agree, "soak archives diverged");
    assert!(invariants_ok, "soak archives violate ledger invariants");
}
