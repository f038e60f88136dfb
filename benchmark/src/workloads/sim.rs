//! `sim_cnn`, `sim_ledger`, `sim_stale`: the round simulator.

use super::{cpu_s_since, telemetry, telemetry_layers, Check, Epoch, LedgerPoint, Size};
use crate::host::cpu_ns;
use crate::probes::{ModelCtx, Probes};
use crate::stats::{fnv1a, mean};
use crate::trace::Tracer;
use feddata::FederatedDataset;
use learning_tangle::{persist, NetworkModel, SimConfig, Simulation, TangleHyperParams};
use std::time::Instant;
use tinynn::Sequential;

/// Which of the three simulator workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// CNN on glyph images, §III-E candidate validation.
    Cnn,
    /// Tiny MLP, large ledger, ideal network.
    Ledger,
    /// The `Ledger` population under the §VI delayed lossy network.
    Stale,
}

/// Sizes and thresholds of one simulator workload.
#[derive(Clone, Copy, Debug)]
pub struct SimSpec {
    /// Which workload.
    pub kind: Kind,
    /// Rounds per epoch.
    pub rounds: u64,
    /// Consensus accuracy whose first crossing `time_to_target_s` marks.
    pub target_accuracy: f32,
    /// Output check: consensus accuracy after the last round.
    pub min_final_accuracy: f32,
}

impl SimSpec {
    /// The workload's sizes for the 2-core reference host: one epoch is
    /// about a third of `run_seconds`.
    pub fn new(kind: Kind, size: Size) -> Self {
        let (rounds, target_accuracy, min_final_accuracy) = match (kind, size) {
            (Kind::Cnn, Size::Full) => (24, 0.30, 0.15),
            (Kind::Ledger, Size::Full) => (150, 0.90, 0.60),
            (Kind::Stale, Size::Full) => (52, 0.90, 0.60),
            (Kind::Cnn, Size::Smoke) => (4, 0.0, 0.0),
            (_, Size::Smoke) => (10, 0.0, 0.0),
        };
        Self {
            kind,
            rounds,
            target_accuracy,
            min_final_accuracy,
        }
    }

    fn config(&self, seed: u64) -> SimConfig {
        match self.kind {
            Kind::Cnn => SimConfig {
                nodes_per_round: 35,
                lr: 0.06,
                batch_size: 16,
                eval_fraction: 0.3,
                seed,
                hyper: TangleHyperParams::robust(35),
                ..SimConfig::default()
            },
            Kind::Ledger | Kind::Stale => SimConfig {
                nodes_per_round: 50,
                lr: 0.15,
                batch_size: 8,
                eval_fraction: 0.3,
                seed,
                hyper: TangleHyperParams::robust(20),
                network: (self.kind == Kind::Stale).then_some(NetworkModel {
                    max_delay_rounds: 2,
                    publish_loss: 0.05,
                }),
                ..SimConfig::default()
            },
        }
    }

    fn dataset(&self, seed: u64) -> FederatedDataset {
        match self.kind {
            Kind::Cnn => {
                feddata::femnist::generate(&feddata::femnist::FemnistConfig::scaled(), seed)
            }
            Kind::Ledger | Kind::Stale => blobs(100, seed),
        }
    }

    fn build(&self) -> fn() -> Sequential {
        match self.kind {
            Kind::Cnn => build_cnn,
            Kind::Ledger | Kind::Stale => build_mlp,
        }
    }

    /// Generate the dataset and construct the simulation: the work
    /// `setup_s` times. Returns the dataset generation share too.
    fn setup(&self, seed: u64) -> (Simulation<'static>, feddata::ClientData, f64) {
        let t = Instant::now();
        let data = self.dataset(seed);
        let generate_ms = t.elapsed().as_secs_f64() * 1e3;
        let client = data.clients[0].clone();
        let sim = Simulation::new(data, self.config(seed), self.build());
        (sim, client, generate_ms)
    }

    /// Set up once more and throw the result away: an extra `setup_s`
    /// sample.
    pub fn setup_only(&self, seed: u64) -> f64 {
        let t = Instant::now();
        std::hint::black_box(self.setup(seed));
        t.elapsed().as_secs_f64()
    }

    /// One epoch: `rounds` rounds from a fresh simulation.
    pub fn epoch(&self, seed: u64, traced: bool) -> Epoch {
        let mut tracer = Tracer::new(traced);
        let t_setup = Instant::now();
        let (mut sim, client, generate_ms) = self.setup(seed);
        let tel = telemetry(traced);
        sim.set_telemetry(tel.clone());
        let setup_s = t_setup.elapsed().as_secs_f64();

        let cfg = self.config(seed);
        let build = self.build();
        let model = ModelCtx {
            client: &client,
            build: &build,
            lr: cfg.lr,
            batch: cfg.batch_size,
        };
        let mut probes = traced.then(|| Probes::new(sim.tangle()));
        let every = (self.rounds / 10).max(1);
        let mut round_ms = Vec::with_capacity(self.rounds as usize);
        let (mut wall_s, mut cpu_s, mut published) = (0.0, 0.0, 0u64);
        let mut to_target: Option<(f64, u64)> = None;
        let mut final_accuracy = 0.0f32;
        let mut series = Vec::new();

        tracer.scope("bench.epoch", seed, |tr| {
            let mut round = 0;
            while round < self.rounds {
                let cpu0 = cpu_ns(None);
                for _ in 0..every.min(self.rounds - round) {
                    round += 1;
                    let t = Instant::now();
                    let stats = tr.scope("core.sim.round", round, |_| sim.round());
                    let s = t.elapsed().as_secs_f64();
                    wall_s += s;
                    round_ms.push(s * 1e3);
                    published += stats.published as u64;
                }
                cpu_s += cpu_s_since(cpu0);
                // Checkpoint: evaluation and probes are outside every
                // timed interval.
                final_accuracy = tr.scope("core.sim.evaluate", round, |_| sim.evaluate(0).accuracy);
                if to_target.is_none() && final_accuracy >= self.target_accuracy {
                    to_target = Some((wall_s, round));
                }
                series.push(LedgerPoint {
                    len: sim.tangle().len() as u64,
                    tips: sim.tangle().tip_count() as u64,
                });
                if let Some(p) = probes.as_mut() {
                    p.checkpoint(tr, round, sim.tangle(), &model);
                }
            }
            if let Some(p) = probes.as_mut() {
                p.final_ledger(tr, sim.tangle());
            }
        });

        let acts = self.rounds * cfg.nodes_per_round as u64;
        let image = persist::to_bytes(sim.tangle());
        let (ledger_len, tips) = (sim.tangle().len() as u64, sim.tangle().tip_count() as u64);
        // Never reached: censored at the end of the epoch.
        let (target_s, target_round) = to_target.unwrap_or((wall_s, self.rounds));
        let decile = (round_ms.len() / 10).max(1);

        let mut layer = crate::probes::Layer::new();
        if let Some(p) = probes {
            p.finish(&mut layer);
            telemetry_layers(&tel, &mut layer);
            let spans_ms = layer["core.sim.analysis_ms"]
                + layer["core.sim.step_ms"]
                + layer["core.sim.publish_ms"];
            layer.insert("bench.coverage_pct", 100.0 * spans_ms / (wall_s * 1e3));
        }
        layer.insert("feddata.generate_ms", generate_ms);
        layer.insert("core.sim.round_ms_first_decile", mean(&round_ms[..decile]));
        layer.insert(
            "core.sim.round_ms_last_decile",
            mean(&round_ms[round_ms.len() - decile..]),
        );
        layer.insert("core.sim.time_to_target_s", target_s);
        layer.insert("core.sim.rounds_to_target", target_round as f64);
        layer.insert("core.sim.final_accuracy", final_accuracy as f64);
        layer.insert("core.node.publish_ratio", published as f64 / acts as f64);
        layer.insert("tangle.graph.ledger_len", ledger_len as f64);
        layer.insert("tangle.graph.tip_count", tips as f64);

        let mut checks = vec![Check::new(
            "final consensus accuracy",
            final_accuracy >= self.min_final_accuracy,
            format!("{final_accuracy:.3} >= {:.3}", self.min_final_accuracy),
        )];
        if traced {
            // Bypass checks: counters of the path this workload must not
            // take.
            let full_n = layer["tangle.analysis.full_n"];
            let appends = layer["tangle.analysis.appends_n"];
            checks.push(match self.kind {
                Kind::Stale => Check::new(
                    "stale views bypass the incremental cache",
                    appends == 0.0 && full_n > 0.0,
                    format!("appends {appends}, full analyses {full_n}"),
                ),
                _ => Check::new(
                    "ideal network never runs a full analysis",
                    full_n == 0.0 && appends > 0.0,
                    format!("appends {appends}, full analyses {full_n}"),
                ),
            });
            let rebuilt =
                layer["tangle.analysis.rebuilds_n"] + layer["core.eval_cache.invalidations_n"];
            checks.push(Check::new(
                "no cache rebuild or invalidation without faults",
                rebuilt == 0.0,
                format!("{rebuilt}"),
            ));
        }

        Epoch {
            setup_s,
            wall_s,
            acts_per_s: acts as f64 / wall_s,
            cpu_us_per_act: cpu_s * 1e6 / acts as f64,
            // No wire in the round simulator: what a transaction costs
            // here is its share of the persisted ledger image.
            wire_bytes_per_tx: image.len() as f64 / ledger_len as f64,
            commit_us: round_ms.iter().map(|ms| ms * 1e3).collect(),
            attempted: acts,
            digest: fnv1a(&image),
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
                ("rounds_to_target", target_round),
            ],
            &tracer,
        )
    }
}

/// The blobs federation every MLP workload learns on.
pub fn blobs(users: usize, seed: u64) -> FederatedDataset {
    feddata::blobs::generate(
        &feddata::blobs::BlobsConfig {
            users,
            samples_per_user: (24, 36),
            noise_std: 0.7,
            ..feddata::blobs::BlobsConfig::default()
        },
        seed,
    )
}

/// The 212-parameter MLP of the ledger and gossip workloads.
pub fn build_mlp() -> Sequential {
    tinynn::zoo::mlp(8, &[16], 4, &mut tinynn::rng::seeded(5))
}

fn build_cnn() -> Sequential {
    let data = feddata::femnist::FemnistConfig::scaled();
    tinynn::zoo::femnist_cnn(
        data.img,
        data.classes,
        tinynn::zoo::CnnConfig::scaled(),
        &mut tinynn::rng::seeded(5),
    )
}
