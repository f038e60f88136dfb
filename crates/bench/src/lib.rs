//! # lt-bench — benchmark harness helpers
//!
//! The actual benchmarks live in `benches/`:
//! * `micro` — hot-path micro-benchmarks (tangle analysis, walks,
//!   aggregation, codec, train steps, PoW, dataset generation).
//! * `tables_and_figures` — one miniature benchmark per paper table and
//!   figure, exercising exactly the code path the corresponding
//!   `lt-experiments` subcommand runs at full size.
//! * `ablations` — design-choice ablations (defense cost, α extremes,
//!   serial vs parallel gradients, reference-averaging width).
//!
//! This library crate only hosts shared fixtures.

use feddata::blobs::BlobsConfig;
use feddata::FederatedDataset;
use learning_tangle::{SimConfig, Simulation, TangleHyperParams};
use tinynn::Sequential;

/// A small blob dataset shared by the simulation benchmarks.
pub fn bench_dataset(users: usize, seed: u64) -> FederatedDataset {
    feddata::blobs::generate(
        &BlobsConfig {
            users,
            samples_per_user: (16, 24),
            noise_std: 0.7,
            ..BlobsConfig::default()
        },
        seed,
    )
}

/// The MLP used by the simulation benchmarks.
pub fn bench_model() -> Sequential {
    tinynn::zoo::mlp(8, &[12], 4, &mut tinynn::rng::seeded(5))
}

/// A simulation config sized for benchmarking (small confidence sampling).
pub fn bench_sim_config(nodes: usize, hyper: TangleHyperParams) -> SimConfig {
    SimConfig {
        nodes_per_round: nodes,
        lr: 0.15,
        batch_size: 8,
        eval_fraction: 0.5,
        seed: 9,
        hyper,
        ..SimConfig::default()
    }
}

/// Build a ready-to-run simulation over a fresh dataset.
pub fn bench_simulation(
    users: usize,
    nodes: usize,
    hyper: TangleHyperParams,
) -> Simulation<'static> {
    Simulation::new(
        bench_dataset(users, 3),
        bench_sim_config(nodes, hyper),
        bench_model,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_work() {
        let mut sim = bench_simulation(
            8,
            4,
            TangleHyperParams {
                confidence_samples: 4,
                ..TangleHyperParams::basic()
            },
        );
        let stats = sim.round();
        assert_eq!(stats.sampled, 4);
    }
}
