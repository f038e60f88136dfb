//! Ablation benchmarks for the design choices DESIGN.md calls out:
//! cost of the §III-E defense, walk randomness extremes, reference-averaging
//! width, windowed tip selection, and robust aggregation.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use learning_tangle::TangleHyperParams;
use lt_bench::bench_simulation;
use std::hint::black_box;

/// Defense cost: a §III-E round validates up to `sample_size` candidate
/// models per node — measure the overhead against the basic algorithm.
fn bench_defense_cost(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_defense_cost");
    g.sample_size(10);
    for (name, validation, sample) in [
        ("round_basic_no_validation", false, 2usize),
        ("round_defended_sample12", true, 12),
    ] {
        let h = TangleHyperParams {
            sample_size: sample,
            reference_avg: 5,
            confidence_samples: 6,
            alpha: 0.5,
            tip_validation: validation,
            ..TangleHyperParams::basic()
        };
        g.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let mut sim = bench_simulation(12, 6, h);
                    for _ in 0..5 {
                        sim.round();
                    }
                    sim
                },
                |mut sim| black_box(sim.round().published),
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

/// Walk randomness: α = 0 explores everything, α → ∞ is greedy. The walk
/// cost itself should be flat; this guards against accidental slow paths.
fn bench_alpha(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_alpha");
    g.sample_size(20);
    use rand::SeedableRng;
    use tangle_ledger::walk::RandomWalk;
    // A wide synthetic tangle with many forks.
    let mut t = tangle_ledger::Tangle::new(0u32);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(4);
    use rand::RngExt;
    for i in 0..600u32 {
        let tips = t.tips();
        let a = tips[rng.random_range(0..tips.len())];
        let b = tips[rng.random_range(0..tips.len())];
        t.add(i, vec![a, b]).unwrap();
    }
    let w = tangle_ledger::analysis::cumulative_weights(&t);
    for alpha in [0.0, 0.5, 10.0] {
        g.bench_function(format!("walk_alpha_{alpha}"), |b| {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
            let walk = RandomWalk::new(alpha);
            b.iter(|| black_box(walk.select_tip_with_weights(&t, &w, &mut rng)))
        });
    }
    g.finish();
}

/// Reference-averaging width (Table II column dimension): consensus
/// extraction cost for top-1 vs top-10 vs top-50.
fn bench_reference_width(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_reference_width");
    g.sample_size(10);
    for width in [1usize, 10, 50] {
        let h = TangleHyperParams {
            reference_avg: width,
            confidence_samples: 6,
            ..TangleHyperParams::basic()
        };
        g.bench_function(format!("consensus_top{width}"), |b| {
            b.iter_batched(
                || {
                    let mut sim = bench_simulation(12, 6, h);
                    for _ in 0..8 {
                        sim.round();
                    }
                    sim
                },
                |sim| black_box(sim.consensus_params().len()),
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

/// Windowed vs genesis-rooted tip selection on a deep tangle (§IV): the
/// windowed walk touches O(window) transactions instead of O(depth).
fn bench_windowed_walk(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_windowed_walk");
    use rand::RngExt;
    use rand::SeedableRng;
    use tangle_ledger::walk::{RandomWalk, WindowedWalk};
    // A deep, narrow tangle: 2000 rounds of 2 transactions.
    let mut t = tangle_ledger::Tangle::new(0u32);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(6);
    for i in 0..2000u32 {
        let tips = t.tips();
        let a = tips[rng.random_range(0..tips.len())];
        let b = tips[rng.random_range(0..tips.len())];
        t.add(2 * i, vec![a, b]).unwrap();
        let tips = t.tips();
        let a = tips[rng.random_range(0..tips.len())];
        t.add(2 * i + 1, vec![a]).unwrap();
    }
    let w = tangle_ledger::analysis::cumulative_weights(&t);
    let d = tangle_ledger::analysis::depths(&t);
    let walk = RandomWalk::new(0.05);
    g.bench_function("from_genesis_depth4000", |b| {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        b.iter(|| black_box(walk.select_tip_with_weights(&t, &w, &mut rng)))
    });
    g.bench_function("windowed_w16", |b| {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(8);
        // As a round context walks it: entries collected once per snapshot.
        let table = WindowedWalk::new(walk, 16).table(&t, &w, &d);
        b.iter(|| {
            let start = table.entry(&mut rng).expect("a windowed table");
            black_box(table.walk(&t, start, &mut rng, |_| {}))
        })
    });
    g.finish();
}

/// Robust aggregation rules vs the plain mean (server-side BFT cost).
fn bench_aggregators(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_aggregators");
    g.sample_size(10);
    use fedavg::Aggregator;
    use tinynn::ParamVec;
    let updates: Vec<ParamVec> = (0..20)
        .map(|i| ParamVec((0..20_000).map(|j| ((i * j) % 17) as f32 * 0.1).collect()))
        .collect();
    let refs: Vec<&ParamVec> = updates.iter().collect();
    let weights = vec![1.0f32; refs.len()];
    for (name, rule) in [
        ("mean", Aggregator::Mean),
        ("krum_f4", Aggregator::Krum { f: 4 }),
        ("multikrum_f4_m8", Aggregator::MultiKrum { f: 4, m: 8 }),
        ("median", Aggregator::Median),
        ("trimmed_mean_20", Aggregator::TrimmedMean { beta: 0.2 }),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| black_box(rule.aggregate(&refs, &weights)))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_defense_cost,
    bench_alpha,
    bench_reference_width,
    bench_windowed_walk,
    bench_aggregators
);
criterion_main!(benches);
