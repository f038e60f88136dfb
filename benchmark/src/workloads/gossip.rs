//! `gossip_flood`, `gossip_churn`: the in-process gossip executor.

use super::sim::{blobs, build_mlp};
use super::{cpu_s_since, telemetry, telemetry_layers, Check, Epoch, LedgerPoint, Size};
use crate::host::cpu_ns;
use crate::probes::{Layer, ModelCtx, Probes};
use crate::stats::fnv1a;
use crate::trace::Tracer;
use learning_tangle::{persist, SimConfig, TangleHyperParams};
use std::time::Instant;
use tangle_gossip::learn::GossipLearning;
use tangle_gossip::{FaultPlan, Latency, NetworkConfig, Topology, TxMessage};
use tinynn::ParamVec;

/// Sizes of one gossip workload.
#[derive(Clone, Copy, Debug)]
pub struct GossipSpec {
    /// Crash/restart, lossy links and checkpoints (`gossip_churn`), or a
    /// healthy network (`gossip_flood`).
    pub churn: bool,
    /// Activations per epoch.
    pub activations: u64,
}

impl GossipSpec {
    /// The workload's sizes for the 2-core reference host.
    pub fn new(churn: bool, size: Size) -> Self {
        let activations = match (churn, size) {
            (false, Size::Full) => 1200,
            (true, Size::Full) => 1200,
            (_, Size::Smoke) => 120,
        };
        Self { churn, activations }
    }

    fn peers(&self) -> usize {
        if self.churn {
            20
        } else {
            48
        }
    }

    /// The learner configuration of the `gossipnet` experiment.
    fn config(seed: u64) -> SimConfig {
        SimConfig {
            lr: 0.15,
            batch_size: 8,
            eval_fraction: 1.0,
            seed,
            hyper: TangleHyperParams {
                confidence_samples: 8,
                reference_avg: 3,
                ..TangleHyperParams::basic()
            },
            ..SimConfig::default()
        }
    }

    fn setup(&self, seed: u64) -> (GossipLearning<'static>, feddata::ClientData, f64) {
        let t = Instant::now();
        let data = blobs(self.peers(), seed);
        let generate_ms = t.elapsed().as_secs_f64() * 1e3;
        let client = data.clients[0].clone();
        let net = NetworkConfig {
            topology: Topology::RandomRegular {
                degree: if self.churn { 4 } else { 6 },
            },
            latency: Latency { min: 1, max: 4 },
            loss: if self.churn { 0.05 } else { 0.0 },
            seed: seed ^ 0x9_0551,
            ..NetworkConfig::default()
        };
        let mut gl = GossipLearning::new(data, Self::config(seed), net, build_mlp);
        if self.churn {
            // The `churn` experiment's fault profile, scaled up.
            let mut plan = FaultPlan::churn(
                self.peers(),
                8,
                self.activations,
                (self.activations / 8).max(8),
                seed ^ 0xFA17,
            );
            plan.duplicate = 0.03;
            plan.corrupt = 0.03;
            plan.reorder_jitter = 2;
            let network = gl.network_mut();
            network.set_checkpointing(64, None);
            network.install_faults(plan);
        }
        (gl, client, generate_ms)
    }

    /// Set up once more and throw the result away: an extra `setup_s`
    /// sample.
    pub fn setup_only(&self, seed: u64) -> f64 {
        let t = Instant::now();
        std::hint::black_box(self.setup(seed));
        t.elapsed().as_secs_f64()
    }

    /// One epoch: `activations` uniformly random activations, then
    /// repair until every replica is quiescent.
    pub fn epoch(&self, seed: u64, traced: bool) -> Epoch {
        let mut tracer = Tracer::new(traced);
        let t_setup = Instant::now();
        let (mut gl, client, generate_ms) = self.setup(seed);
        let tel = telemetry(traced);
        gl.set_telemetry(tel.clone());
        let setup_s = t_setup.elapsed().as_secs_f64();

        let cfg = Self::config(seed);
        let build = build_mlp;
        let model = ModelCtx {
            client: &client,
            build: &build,
            lr: cfg.lr,
            batch: cfg.batch_size,
        };
        let mut probes = traced.then(|| Probes::new(gl.network().peer(0).replica()));
        let every = (self.activations / 10).max(1);
        let mut commit_us = Vec::with_capacity(self.activations as usize);
        let (mut activate_s, mut cpu_s) = (0.0, 0.0);
        let mut series = Vec::new();
        let mut quiesced = false;
        let mut drain_s = 0.0;

        tracer.scope("bench.epoch", seed, |tr| {
            let mut done = 0;
            while done < self.activations {
                let chunk = every.min(self.activations - done);
                let cpu0 = cpu_ns(None);
                tr.scope("gossip.network.activate", done, |_| {
                    for _ in 0..chunk {
                        let t = Instant::now();
                        gl.run(1);
                        let s = t.elapsed().as_secs_f64();
                        activate_s += s;
                        commit_us.push(s * 1e6);
                    }
                });
                cpu_s += cpu_s_since(cpu0);
                done += chunk;
                let replica = gl.network().peer(0).replica();
                series.push(LedgerPoint {
                    len: replica.len() as u64,
                    tips: replica.tip_count() as u64,
                });
                if let Some(p) = probes.as_mut() {
                    p.checkpoint(tr, done, replica, &model);
                    tr.scope("bench.probe", done, |tr| {
                        p.peer_image(tr, gl.network().peer(0))
                    });
                }
            }
            let cpu0 = cpu_ns(None);
            let t = Instant::now();
            quiesced = tr.scope("gossip.network.drain", done, |_| {
                gl.network_mut().repair_to_quiescence(64)
            });
            drain_s = t.elapsed().as_secs_f64();
            cpu_s += cpu_s_since(cpu0);
            if let Some(p) = probes.as_mut() {
                let peer = gl.network().peer(0);
                p.final_ledger(tr, peer.replica());
                let genesis =
                    TxMessage::create(&ParamVec::from_model(&build_mlp()), vec![], u64::MAX, 0, 0);
                p.archive(tr, &genesis, &peer.export_messages());
            }
        });

        let wall_s = activate_s + drain_s;
        let consistent = quiesced && gl.network().replicas_consistent();
        let stats = gl.network().stats;
        let published = gl.published();
        let archive = gl.network().peer(0).export_messages();
        let mean_msg_bytes = archive.iter().map(|m| m.encode().len()).sum::<usize>() as f64
            / archive.len().max(1) as f64;
        let replica = gl.network().peer(0).replica();
        let (ledger_len, tips) = (replica.len() as u64, replica.tip_count() as u64);

        let mut layer = Layer::new();
        if let Some(p) = probes {
            p.finish(&mut layer);
            telemetry_layers(&tel, &mut layer);
            let spans_ms = [
                "tinynn.model.train_busy_ms",
                "tangle.analysis.confidence_busy_ms",
                "tangle.walk.busy_ms",
                "gossip.message.create_busy_ms",
                "gossip.network.deliver_busy_ms",
            ]
            .iter()
            .map(|name| layer[name])
            .sum::<f64>();
            layer.insert("bench.coverage_pct", 100.0 * spans_ms / (wall_s * 1e3));
        }
        layer.insert("feddata.generate_ms", generate_ms);
        layer.insert(
            "core.node.publish_ratio",
            published as f64 / self.activations as f64,
        );
        layer.insert("tangle.graph.ledger_len", ledger_len as f64);
        layer.insert("tangle.graph.tip_count", tips as f64);
        layer.insert("gossip.network.delivered_n", stats.delivered as f64);
        layer.insert("gossip.network.duplicates_n", stats.duplicates as f64);
        layer.insert(
            "gossip.network.dup_ratio",
            stats.duplicates as f64 / stats.delivered.max(1) as f64,
        );
        layer.insert("gossip.network.orphaned_n", stats.orphaned as f64);
        layer.insert("gossip.network.rerequests_n", stats.rerequests as f64);
        layer.insert("gossip.network.dropped_n", stats.dropped as f64);
        layer.insert("gossip.network.rejected_n", stats.rejected as f64);
        layer.insert("gossip.network.discarded_n", stats.discarded as f64);
        layer.insert("gossip.network.evicted_n", stats.evicted as f64);
        layer.insert("gossip.network.activate_ms", activate_s * 1e3);
        layer.insert("gossip.network.drain_ms", drain_s * 1e3);
        layer.insert("gossip.network.ticks", gl.network().now() as f64);

        let mut checks = vec![Check::new(
            "replicas quiesce and agree",
            consistent,
            format!("quiesced {quiesced}, ledger {ledger_len}"),
        )];
        if !self.churn {
            let faults = stats.dropped + stats.rejected + stats.discarded;
            checks.push(Check::new(
                "healthy network loses, rejects and discards nothing",
                faults == 0,
                format!("{faults}"),
            ));
        }
        if traced {
            let fault_path = layer["gossip.fault.crashes_n"]
                + layer["gossip.fault.restarts_n"]
                + layer["gossip.fault.checkpoints_n"]
                + layer["tangle.analysis.rebuilds_n"]
                + layer["core.eval_cache.invalidations_n"];
            checks.push(if self.churn {
                Check::new(
                    "churn runs the crash, checkpoint and rebuild paths",
                    layer["gossip.fault.crashes_n"] > 0.0
                        && layer["gossip.fault.checkpoints_n"] > 0.0,
                    format!("{fault_path}"),
                )
            } else {
                Check::new(
                    "flood bypasses the fault and persist paths",
                    fault_path == 0.0,
                    format!("{fault_path}"),
                )
            });
        }

        Epoch {
            setup_s,
            wall_s,
            acts_per_s: self.activations as f64 / wall_s,
            cpu_us_per_act: cpu_s * 1e6 / self.activations as f64,
            wire_bytes_per_tx: stats.delivered as f64 * mean_msg_bytes / published.max(1) as f64,
            commit_us,
            attempted: self.activations,
            // A run that ends inconsistent delivered nothing it can vouch
            // for: every activation counts as failed.
            failed: if consistent { 0 } else { self.activations },
            digest: fnv1a(&persist::to_bytes(replica)),
            series,
            checks,
            ..Epoch::default()
        }
        .finish(
            layer,
            &[
                ("ledger_len", ledger_len),
                ("tip_count", tips),
                ("published", published),
                ("delivered", stats.delivered),
                ("duplicates", stats.duplicates),
                ("orphaned", stats.orphaned),
                ("rerequests", stats.rerequests),
                ("dropped", stats.dropped),
                ("rejected", stats.rejected),
                ("discarded", stats.discarded),
                ("ticks", gl.network().now()),
            ],
            &tracer,
        )
    }
}
