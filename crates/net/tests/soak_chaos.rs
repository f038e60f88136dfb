//! Acceptance: a 4-daemon cluster driven through a bidirectional
//! partition and a SIGKILL + checkpoint-restore cycle reconverges
//! through the real repair protocol over real sockets — equal solid
//! ledgers, quiescent repair counters, byte-agreeing archives, and a
//! conformance-invariant-clean replica rebuilt from *every* daemon's
//! archive. The run is reproducible from its seeded [`ChaosPlan`].

use lt_conformance::check_ledger_invariants;
use lt_net::{
    default_node_bin, run_soak, ChaosPlan, KillEvent, LinkChaos, LinkFault, Preset, SoakConfig,
    ORPHAN_CAP,
};
use std::path::PathBuf;
use tangle_gossip::{Peer, ReceiveOutcome, Recovery};

fn node_bin() -> PathBuf {
    option_env!("CARGO_BIN_EXE_lt-node")
        .map(PathBuf::from)
        .unwrap_or_else(default_node_bin)
}

#[test]
fn four_daemon_soak_reconverges_through_repair() {
    const NODES: usize = 4;
    const SEED: u64 = 42;
    // Hand-built schedule: cut 1↔2 both ways for 1.4s mid-run, and
    // SIGKILL daemon 3 while the partition is up, restoring it from its
    // periodic checkpoint 1.1s later on the same listen address.
    let plan = ChaosPlan {
        seed: 11,
        links: vec![LinkChaos {
            a: 1,
            b: 2,
            bidirectional: true,
            from_ms: 800,
            until_ms: 2200,
            fault: LinkFault::Partition,
        }],
        kills: vec![KillEvent {
            daemon: 3,
            at_ms: 1500,
            restore_at_ms: 2600,
            recovery: Recovery::FromCheckpoint,
        }],
    };
    plan.validate(NODES).expect("plan is well-formed");

    let dir = std::env::temp_dir().join(format!("lt-soak-{}", std::process::id()));
    let mut cfg = SoakConfig::new(NODES, SEED, 6_000, 0, &dir);
    cfg.chaos = plan.clone();
    let (report, archives) = run_soak(&node_bin(), &cfg).expect("soak run");

    assert_eq!(report.kills, 1, "supervisor executed the kill");
    assert_eq!(report.respawns, 1, "supervisor executed the restore");
    assert!(report.published > 0, "traffic flowed during the chaos");
    assert!(
        report.converged,
        "cluster failed to reconverge after the heal: {report:?}"
    );
    assert!(report.archives_agree, "final archives diverged");
    assert!(
        report.repair_quiescent,
        "repair counters kept growing after convergence"
    );
    assert_eq!(archives.len(), NODES);

    // rebuild a replica from EVERY daemon's archive and run the full
    // conformance invariant suite over each
    let p = Preset {
        nodes: NODES,
        seed: SEED,
    };
    let genesis = p.genesis();
    for (i, archive) in archives.iter().enumerate() {
        assert_eq!(
            archive.len() + 1,
            report.final_len as usize,
            "daemon {i} archive length"
        );
        let mut rebuilt = Peer::new(0, &genesis, 0).with_orphan_cap(ORPHAN_CAP);
        for msg in archive {
            assert_eq!(
                rebuilt.receive(msg),
                ReceiveOutcome::Accepted,
                "daemon {i} archive replay"
            );
        }
        check_ledger_invariants(rebuilt.replica(), &p.sim_cfg())
            .unwrap_or_else(|v| panic!("daemon {i} ledger violates invariants: {v:?}"));
    }

    // the report carries the executed plan as a replay artifact
    let json = report.to_json();
    assert!(json.contains("\"converged\": true"));
    assert_eq!(ChaosPlan::from_json(&plan.to_json()).unwrap(), plan);

    std::fs::remove_dir_all(&dir).ok();
}

/// The rolling generator is a pure function of `(nodes, horizon, seed)`
/// — the property that makes a soak run replayable from three numbers —
/// and its plans survive a JSON roundtrip bit-for-bit.
#[test]
fn rolling_plans_are_deterministic_and_roundtrip() {
    let a = ChaosPlan::rolling(4, 60_000, 7);
    let b = ChaosPlan::rolling(4, 60_000, 7);
    assert_eq!(a, b);
    assert!(!a.is_benign(), "a minute of chaos schedules faults");
    assert!(!a.kills.is_empty(), "a minute of chaos schedules kills");
    a.validate(4).expect("generated plans are well-formed");
    let c = ChaosPlan::rolling(4, 60_000, 8);
    assert_ne!(a, c, "different seeds, different schedules");
    assert_eq!(ChaosPlan::from_json(&a.to_json()).unwrap(), a);
}
