//! Robustness experiment: accuracy and replica consistency vs node churn.
//!
//! Peers learn over a lossy gossip network while a deterministic
//! [`FaultPlan`] crashes and restarts them on schedule (recovering from
//! periodic checkpoints), on top of constant link-level duplication,
//! corruption, and reordering. After the run, replicas must reconcile
//! through the pull-based repair protocol alone; the experiment prints a
//! degradation table of final accuracy and consistency per churn level.

use crate::common::{write_json, Opts};
use learning_tangle::metrics::{MetricPoint, MetricsLog};
use learning_tangle::{SimConfig, TangleHyperParams};
use tangle_gossip::fault::FaultPlan;
use tangle_gossip::learn::GossipLearning;
use tangle_gossip::network::{Latency, NetworkConfig, Topology};

struct Row {
    label: String,
    cycles: u64,
    accuracy: f32,
    consistent: bool,
    crashes: usize,
    discarded: u64,
    rerequests: u64,
}

/// Run the churn sweep: 0, half, and full `--churn` crash/restart cycles.
pub fn run(opts: &Opts) {
    let users = 12usize;
    let data = feddata::blobs::generate(
        &feddata::blobs::BlobsConfig {
            users,
            samples_per_user: (24, 36),
            noise_std: 0.7,
            ..feddata::blobs::BlobsConfig::default()
        },
        opts.seed,
    );
    println!("dataset: {}", data.summary());
    println!(
        "fault seed {}, checkpointing every {} ticks",
        opts.fault_seed, opts.checkpoint_every
    );
    let build = || tinynn::zoo::mlp(8, &[16], 4, &mut tinynn::rng::seeded(5));
    let activations = opts.rounds.unwrap_or(120);
    let mut levels = vec![0, opts.churn / 2, opts.churn];
    levels.dedup();
    let mut logs = Vec::new();
    let mut rows = Vec::new();
    for cycles in levels {
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
        let net_cfg = NetworkConfig {
            topology: Topology::RandomRegular { degree: 4 },
            latency: Latency { min: 1, max: 4 },
            loss: 0.05,
            seed: opts.seed ^ 0xC806,
            ..NetworkConfig::default()
        };
        let mut gl = GossipLearning::new(data.clone(), cfg, net_cfg, build);
        gl.set_telemetry(crate::common::telemetry());
        // Constant link perturbations across all levels; only the
        // crash/restart cycle count varies.
        let mut plan = FaultPlan::churn(
            users,
            cycles as usize,
            activations,
            (activations / 8).max(8),
            opts.fault_seed,
        );
        plan.duplicate = 0.03;
        plan.corrupt = 0.03;
        plan.reorder_jitter = 2;
        let crashes = plan.crashes.len();
        {
            let net = gl.network_mut();
            net.set_checkpointing(opts.checkpoint_every, None);
            net.install_faults(plan);
        }
        let label = format!("churn-{cycles}");
        println!("\n--- {label} ({crashes} crash/restart cycles) ---");
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
                "  [{label}] activations {done:>4}  peer0-acc {acc:.3}  replica sizes {min}..{max}  discarded {}",
                gl.network().stats.discarded
            );
        }
        // Reconcile via the pull-based repair protocol alone.
        let quiesced = gl.network_mut().repair_to_quiescence(64);
        let consistent = quiesced && gl.network().replicas_consistent();
        let (l, acc) = gl.evaluate_peer(0);
        let stats = gl.network().stats;
        println!(
            "  [{label}] consistent after repair: {consistent}  acc {acc:.3}  rerequests {}  discarded {}",
            stats.rerequests, stats.discarded
        );
        log.push(MetricPoint {
            round: done + 1,
            accuracy: acc,
            loss: l,
            target_misclassification: None,
            tips: Some(0),
        });
        logs.push(log);
        rows.push(Row {
            label,
            cycles,
            accuracy: acc,
            consistent,
            crashes,
            discarded: stats.discarded,
            rerequests: stats.rerequests,
        });
    }
    println!("\n=== Accuracy and consistency vs churn ===");
    println!(
        "{:>10}  {:>6}  {:>8}  {:>9}  {:>10}  {:>10}  {:>10}",
        "level", "cycles", "crashes", "final-acc", "consistent", "discarded", "rerequests"
    );
    for r in &rows {
        println!(
            "{:>10}  {:>6}  {:>8}  {:>9.3}  {:>10}  {:>10}  {:>10}",
            r.label, r.cycles, r.crashes, r.accuracy, r.consistent, r.discarded, r.rerequests
        );
    }
    write_json(&opts.out, "churn", &logs);
}
