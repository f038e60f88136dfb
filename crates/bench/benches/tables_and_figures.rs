//! One miniature benchmark per paper table/figure: each exercises exactly
//! the code path the corresponding `lt-experiments` subcommand runs at full
//! scale, so `cargo bench` both regression-tests and times the whole
//! reproduction pipeline. (The full-size series are produced by
//! `lt-experiments`, not Criterion — a 200-round sweep is not a benchmark
//! iteration.)

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use learning_tangle::{assign_malicious, AttackKind, TangleHyperParams};
use lt_bench::{bench_dataset, bench_model, bench_sim_config, bench_simulation};
use std::hint::black_box;
use tangle_ledger::analysis::ConsensusView;

fn hyper(conf: usize) -> TangleHyperParams {
    TangleHyperParams {
        confidence_samples: conf,
        ..TangleHyperParams::basic()
    }
}

/// Table I: dataset characterization (generation + summary statistics).
fn bench_table1(c: &mut Criterion) {
    let mut g = c.benchmark_group("table1");
    g.sample_size(10);
    let fcfg = feddata::femnist::FemnistConfig {
        users: 20,
        ..feddata::femnist::FemnistConfig::scaled()
    };
    g.bench_function("femnist_generate_and_summarize", |b| {
        b.iter(|| {
            let ds = feddata::femnist::generate(&fcfg, 1);
            black_box((ds.summary(), ds.total_train_samples()))
        })
    });
    g.finish();
}

/// Fig. 2: consensus classification of a grown tangle.
fn bench_fig2(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig2");
    g.sample_size(10);
    let mut sim = bench_simulation(10, 5, hyper(6));
    for _ in 0..10 {
        sim.round();
    }
    g.bench_function("consensus_view", |b| {
        b.iter(|| black_box(ConsensusView::compute(sim.tangle()).confirmed()))
    });
    g.bench_function("dot_export", |b| {
        b.iter(|| black_box(tangle_ledger::dot::to_dot(sim.tangle())))
    });
    g.finish();
}

/// Fig. 3: one tangle round + evaluation (the unit of the convergence
/// sweep), for both the basic and the optimized hyperparameters.
fn bench_fig3(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig3");
    g.sample_size(10);
    for (name, h) in [
        ("tangle_round_basic", hyper(6)),
        (
            "tangle_round_optimized",
            TangleHyperParams {
                confidence_samples: 6,
                ..TangleHyperParams::optimized()
            },
        ),
    ] {
        g.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let mut sim = bench_simulation(12, 6, h);
                    for _ in 0..4 {
                        sim.round();
                    }
                    sim
                },
                |mut sim| {
                    sim.round();
                    black_box(sim.evaluate(1).accuracy)
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.bench_function("fedavg_round_baseline", |b| {
        b.iter_batched(
            || {
                let data = bench_dataset(12, 3);
                (data, 0)
            },
            |(data, _)| {
                let mut fa = fedavg::FedAvg::new(
                    &data,
                    fedavg::FedAvgConfig {
                        nodes_per_round: 6,
                        lr: 0.15,
                        seed: 1,
                        ..fedavg::FedAvgConfig::default()
                    },
                    bench_model,
                );
                fa.round();
                black_box(fa.evaluate(0.5, 1).1)
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// Fig. 4: one round of the sequence task (stacked LSTM over the tangle).
fn bench_fig4(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig4");
    g.sample_size(10);
    let data = feddata::shakespeare::generate(
        &feddata::shakespeare::ShakespeareConfig {
            users: 8,
            samples_per_user: (4, 8),
            seq_len: 8,
            vocab: 12,
            ..feddata::shakespeare::ShakespeareConfig::scaled()
        },
        5,
    );
    let build = || tinynn::zoo::char_lstm(12, 4, 8, 2, &mut tinynn::rng::seeded(2));
    g.bench_function("lstm_tangle_round", |b| {
        b.iter_batched(
            || learning_tangle::Simulation::new(data.clone(), bench_sim_config(4, hyper(4)), build),
            |mut sim| {
                sim.round();
                black_box(sim.tangle().len())
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// Table II: the metric pipeline — run a short sweep cell and extract the
/// rounds-to-threshold figure.
fn bench_table2(c: &mut Criterion) {
    let mut g = c.benchmark_group("table2");
    g.sample_size(10);
    g.bench_function("sweep_cell_tips3_ref10", |b| {
        b.iter_batched(
            || {
                bench_simulation(
                    12,
                    6,
                    TangleHyperParams {
                        num_tips: 3,
                        sample_size: 6,
                        reference_avg: 10,
                        confidence_samples: 6,
                        alpha: 0.5,
                        tip_validation: true,
                        ..TangleHyperParams::basic()
                    },
                )
            },
            |mut sim| {
                let mut log = learning_tangle::MetricsLog::new("cell");
                for r in 1..=6u64 {
                    sim.round();
                    if r % 2 == 0 {
                        let ev = sim.evaluate(r);
                        log.push(learning_tangle::metrics::MetricPoint {
                            round: r,
                            accuracy: ev.accuracy,
                            loss: ev.loss,
                            target_misclassification: None,
                            tips: None,
                        });
                    }
                }
                black_box(learning_tangle::rounds_to_reach(&log, 0.5))
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// Fig. 5: one attacked round (random poisoning, §V-B defense active).
fn bench_fig5(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig5");
    g.sample_size(10);
    g.bench_function("attacked_round_noise_p25", |b| {
        b.iter_batched(
            || {
                let mut sim = bench_simulation(12, 6, TangleHyperParams::robust(6));
                assign_malicious(sim.nodes_mut(), 0.25, 3, AttackKind::RandomNoise, 1, |_| {
                    None
                });
                for _ in 0..4 {
                    sim.round();
                }
                sim
            },
            |mut sim| {
                let stats = sim.round();
                black_box((stats.malicious_published, sim.evaluate(1).accuracy))
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// Fig. 6: one attacked round (label flip) plus the 6b misclassification
/// metric.
fn bench_fig6(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig6");
    g.sample_size(10);
    g.bench_function("attacked_round_flip_and_6b_metric", |b| {
        b.iter_batched(
            || {
                let mut sim = bench_simulation(12, 6, TangleHyperParams::robust(6));
                let kind = AttackKind::LabelFlip { src: 0, dst: 3 };
                assign_malicious(
                    sim.nodes_mut(),
                    0.2,
                    3,
                    kind,
                    1,
                    learning_tangle::attack::default_flip_source(0, 3),
                );
                for _ in 0..4 {
                    sim.round();
                }
                sim
            },
            |mut sim| {
                sim.round();
                black_box(sim.target_misclassification(0, 3, 1))
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_table1,
    bench_fig2,
    bench_fig3,
    bench_fig4,
    bench_table2,
    bench_fig5,
    bench_fig6
);
criterion_main!(benches);
