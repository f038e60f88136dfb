//! The FedAvg server loop.

use crate::aggregate::Aggregator;
use crate::train::{evaluate_params, local_train, sample_eval_clients};
use feddata::FederatedDataset;
use rand::RngExt;
use rand_distr_shim::sample_noise;
use rayon::prelude::*;
use std::collections::HashSet;
use tinynn::rng::{derive, seeded};
use tinynn::{ParamVec, Sequential};

/// Standard-normal noise vector (the malicious client payload), kept in a
/// private helper so the server loop stays readable.
mod rand_distr_shim {
    use rand::RngExt;
    use tinynn::ParamVec;

    pub(crate) fn sample_noise(dim: usize, rng: &mut impl RngExt) -> ParamVec {
        // Box–Muller, to avoid a rand_distr dependency in this crate.
        let mut out = Vec::with_capacity(dim);
        while out.len() < dim {
            let u1: f32 = rng.random_range(f32::EPSILON..1.0);
            let u2: f32 = rng.random_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            out.push(r * theta.cos());
            if out.len() < dim {
                out.push(r * theta.sin());
            }
        }
        ParamVec(out)
    }
}

/// FedAvg hyperparameters (paper Table I values: FEMNIST lr 0.06,
/// Shakespeare lr 0.8, one local epoch).
#[derive(Clone, Debug)]
pub struct FedAvgConfig {
    /// Clients sampled per round.
    pub nodes_per_round: usize,
    /// Local SGD epochs per selected client.
    pub local_epochs: usize,
    /// Local SGD learning rate.
    pub lr: f32,
    /// Local mini-batch size.
    pub batch_size: usize,
    /// Master seed for client sampling and local shuffles.
    pub seed: u64,
    /// Server-side aggregation rule (plain FedAvg uses the weighted mean;
    /// Krum/median/trimmed-mean enable the §II-A BFT defenses).
    pub aggregator: Aggregator,
}

impl Default for FedAvgConfig {
    fn default() -> Self {
        Self {
            nodes_per_round: 10,
            local_epochs: 1,
            lr: 0.06,
            batch_size: 16,
            seed: 0,
            aggregator: Aggregator::Mean,
        }
    }
}

/// Statistics of one federated round.
#[derive(Clone, Copy, Debug)]
pub struct RoundStats {
    /// Round index (1-based after the first call).
    pub round: u64,
    /// Mean local training loss over the sampled clients.
    pub mean_train_loss: f32,
    /// Clients that participated.
    pub participants: usize,
}

/// A federated-averaging run over a fixed dataset and model architecture.
///
/// Per-client working copies share the architecture's layers and carry
/// their own parameters, so rounds can run clients in parallel.
pub struct FedAvg<'a> {
    data: &'a FederatedDataset,
    cfg: FedAvgConfig,
    arch: Sequential,
    global: ParamVec,
    round: u64,
    poisoners: HashSet<usize>,
}

impl<'a> FedAvg<'a> {
    /// Create a run. `build` is called once: its model is the shared
    /// architecture and its parameters the initial global model.
    pub fn new(
        data: &'a FederatedDataset,
        cfg: FedAvgConfig,
        build: impl FnOnce() -> Sequential,
    ) -> Self {
        let arch = build();
        Self {
            data,
            cfg,
            global: ParamVec::from_model(&arch),
            arch,
            round: 0,
            poisoners: HashSet::new(),
        }
    }

    /// Set (or replace) the malicious client set mid-run — e.g. to attack
    /// only after a benign pre-training phase, as the paper's §V-B does.
    pub fn set_random_poisoners(&mut self, indices: impl IntoIterator<Item = usize>) {
        self.poisoners = indices.into_iter().collect();
    }

    /// Run one synchronous round: sample clients, local-train each from the
    /// global model (in parallel), aggregate weighted by sample count.
    pub fn round(&mut self) -> RoundStats {
        self.round += 1;
        let mut rng = seeded(derive(self.cfg.seed, self.round));
        let n = self.data.num_clients();
        let k = self.cfg.nodes_per_round.clamp(1, n);
        let mut idx: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.random_range(0..=i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        let results: Vec<(ParamVec, f32, f32)> = idx
            .par_iter()
            .map(|&ci| {
                let client = &self.data.clients[ci];
                let mut local_rng = seeded(derive(self.cfg.seed, (self.round << 20) ^ ci as u64));
                if self.poisoners.contains(&ci) {
                    let noise = sample_noise(self.global.len(), &mut local_rng);
                    return (noise, client.train_len() as f32, 0.0);
                }
                let mut model = self.arch.with_params(self.global.0.clone());
                let loss = local_train(
                    &mut model,
                    client,
                    self.cfg.local_epochs,
                    self.cfg.lr,
                    self.cfg.batch_size,
                    &mut local_rng,
                );
                (
                    ParamVec(model.into_params()),
                    client.train_len() as f32,
                    loss,
                )
            })
            .collect();
        let params: Vec<&ParamVec> = results.iter().map(|(p, _, _)| p).collect();
        let weights: Vec<f32> = results.iter().map(|(_, w, _)| *w).collect();
        self.global = self.cfg.aggregator.aggregate(&params, &weights);
        let mean_train_loss = results.iter().map(|(_, _, l)| l).sum::<f32>() / results.len() as f32;
        RoundStats {
            round: self.round,
            mean_train_loss,
            participants: results.len(),
        }
    }

    /// Evaluate the global model on the pooled held-out data of a random
    /// `frac` of all clients (the paper uses 10%). Deterministic per
    /// `(seed, round, eval_seed)`.
    pub fn evaluate(&self, frac: f32, eval_seed: u64) -> (f32, f32) {
        let mut rng = seeded(derive(self.cfg.seed, 0xE7A1_0000 ^ eval_seed));
        let clients = sample_eval_clients(self.data, frac, &mut rng);
        evaluate_params(&self.arch, &self.global, &clients)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feddata::blobs::{self, BlobsConfig};

    fn dataset() -> FederatedDataset {
        blobs::generate(
            &BlobsConfig {
                users: 12,
                samples_per_user: (30, 40),
                noise_std: 0.6,
                ..BlobsConfig::default()
            },
            42,
        )
    }

    #[test]
    fn fedavg_converges_on_blobs() {
        let ds = dataset();
        let mut fa = FedAvg::new(
            &ds,
            FedAvgConfig {
                nodes_per_round: 6,
                lr: 0.2,
                seed: 1,
                ..FedAvgConfig::default()
            },
            || tinynn::zoo::mlp(8, &[16], 4, &mut tinynn::rng::seeded(7)),
        );
        let (_, acc0) = fa.evaluate(1.0, 0);
        for _ in 0..25 {
            fa.round();
        }
        let (_, acc1) = fa.evaluate(1.0, 0);
        assert!(
            acc1 > acc0 + 0.25,
            "fedavg should improve markedly: {acc0} -> {acc1}"
        );
        assert!(acc1 > 0.7, "final accuracy too low: {acc1}");
    }

    #[test]
    fn round_stats_track_participants() {
        let ds = dataset();
        let mut fa = FedAvg::new(
            &ds,
            FedAvgConfig {
                nodes_per_round: 5,
                seed: 2,
                ..FedAvgConfig::default()
            },
            || tinynn::zoo::mlp(8, &[8], 4, &mut tinynn::rng::seeded(3)),
        );
        let s = fa.round();
        assert_eq!(s.round, 1);
        assert_eq!(s.participants, 5);
        assert!(s.mean_train_loss > 0.0);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let ds = dataset();
        let run = |seed: u64| {
            let mut fa = FedAvg::new(
                &ds,
                FedAvgConfig {
                    nodes_per_round: 4,
                    seed,
                    lr: 0.1,
                    ..FedAvgConfig::default()
                },
                || tinynn::zoo::mlp(8, &[8], 4, &mut tinynn::rng::seeded(9)),
            );
            for _ in 0..3 {
                fa.round();
            }
            fa.global.clone()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5).as_slice(), run(6).as_slice());
    }

    #[test]
    fn mean_aggregation_collapses_under_poisoners_but_krum_survives() {
        let ds = dataset();
        let run = |aggregator: crate::Aggregator| {
            let mut fa = FedAvg::new(
                &ds,
                FedAvgConfig {
                    nodes_per_round: 8,
                    lr: 0.2,
                    seed: 11,
                    aggregator,
                    ..FedAvgConfig::default()
                },
                || tinynn::zoo::mlp(8, &[16], 4, &mut tinynn::rng::seeded(7)),
            );
            fa.set_random_poisoners([0usize, 1]); // 2 of 12 clients malicious
            for _ in 0..20 {
                fa.round();
            }
            fa.evaluate(1.0, 0).1
        };
        let mean_acc = run(crate::Aggregator::Mean);
        let krum_acc = run(crate::Aggregator::MultiKrum { f: 2, m: 4 });
        assert!(
            krum_acc > 0.6,
            "multi-krum should survive 2 poisoners: {krum_acc}"
        );
        assert!(
            krum_acc > mean_acc,
            "robust aggregation should beat the poisoned mean: {krum_acc} vs {mean_acc}"
        );
    }

    #[test]
    fn median_aggregation_learns() {
        let ds = dataset();
        let mut fa = FedAvg::new(
            &ds,
            FedAvgConfig {
                nodes_per_round: 6,
                lr: 0.2,
                seed: 13,
                aggregator: crate::Aggregator::Median,
                ..FedAvgConfig::default()
            },
            || tinynn::zoo::mlp(8, &[16], 4, &mut tinynn::rng::seeded(7)),
        );
        for _ in 0..25 {
            fa.round();
        }
        let (_, acc) = fa.evaluate(1.0, 0);
        assert!(acc > 0.6, "median-aggregated fedavg should learn: {acc}");
    }

    #[test]
    fn oversized_nodes_per_round_clamps() {
        let ds = dataset();
        let mut fa = FedAvg::new(
            &ds,
            FedAvgConfig {
                nodes_per_round: 1000,
                seed: 3,
                ..FedAvgConfig::default()
            },
            || tinynn::zoo::mlp(8, &[8], 4, &mut tinynn::rng::seeded(1)),
        );
        assert_eq!(fa.round().participants, 12);
    }
}
