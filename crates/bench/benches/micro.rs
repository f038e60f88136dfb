//! Micro-benchmarks of the hot paths: tangle analysis, tip selection,
//! parameter aggregation, the wire codec, and training steps.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::SeedableRng;
use std::hint::black_box;
use tangle_ledger::analysis::{cumulative_weights, ratings, TangleAnalysis};
use tangle_ledger::walk::RandomWalk;
use tangle_ledger::Tangle;
use tinynn::rng::seeded;
use tinynn::{ParamVec, Tensor};

/// A synthetic tangle shaped like a learning run: `rounds` layers of
/// `width` transactions, each approving two random current tips.
fn synthetic_tangle(rounds: usize, width: usize) -> Tangle<u32> {
    let mut t = Tangle::new(0u32);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
    use rand::RngExt;
    for r in 0..rounds {
        let tips = t.tips();
        for w in 0..width {
            let a = tips[rng.random_range(0..tips.len())];
            let b = tips[rng.random_range(0..tips.len())];
            t.add((r * width + w) as u32, vec![a, b]).unwrap();
        }
    }
    t
}

fn bench_tangle_analysis(c: &mut Criterion) {
    let mut g = c.benchmark_group("tangle_analysis");
    for (rounds, width) in [(20, 10), (50, 35)] {
        let t = synthetic_tangle(rounds, width);
        let n = t.len();
        g.bench_function(format!("cumulative_weights_{n}tx"), |b| {
            b.iter(|| black_box(cumulative_weights(&t)))
        });
        g.bench_function(format!("ratings_{n}tx"), |b| {
            b.iter(|| black_box(ratings(&t)))
        });
        let analysis = TangleAnalysis::compute(&t);
        let weights = &analysis.cumulative_weight;
        let walk = RandomWalk::default();
        // What a round context pays once per snapshot ...
        g.bench_function(format!("walk_table_build_{n}tx"), |b| {
            b.iter(|| black_box(walk.table(&t, weights)))
        });
        // ... so that its walks read stored rows. Table walks and
        // context-free walks must agree draw for draw.
        let table = walk.table(&t, weights);
        for seed in 0..64 {
            let rng = || rand::rngs::SmallRng::seed_from_u64(seed);
            assert_eq!(
                table.walk(&t, t.genesis(), &mut rng(), |_| {}),
                walk.select_tip_with_weights(&t, weights, &mut rng()),
                "seed {seed}: the table walk and the context-free walk diverge"
            );
        }
        g.bench_function(format!("walk_confidence_35samples_{n}tx"), |b| {
            b.iter(|| black_box(table.walk_confidence(&t, 35, 7)))
        });
        g.bench_function(format!("tip_selection_walk_{n}tx"), |b| {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
            b.iter(|| black_box(walk.select_tip_with_weights(&t, weights, &mut rng)))
        });
        g.bench_function(format!("tip_selection_table_walk_{n}tx"), |b| {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
            b.iter(|| black_box(table.walk(&t, t.genesis(), &mut rng, |_| {})))
        });
    }
    g.finish();
}

fn bench_analysis_cache(c: &mut Criterion) {
    use tangle_ledger::{AnalysisCache, RefreshOutcome};
    let mut g = c.benchmark_group("analysis_cache");
    g.sample_size(20);
    for (rounds, width) in [(200, 50), (1000, 50)] {
        let t = synthetic_tangle(rounds, width);
        let n = t.len();
        // Cached-vs-fresh equivalence: the incrementally maintained DP
        // tables must match a from-scratch analysis exactly.
        let cache = AnalysisCache::new(&t);
        let fresh = TangleAnalysis::compute(&t);
        assert_eq!(cache.weights(), fresh.cumulative_weight.as_slice());
        assert_eq!(cache.ratings(), fresh.rating.as_slice());
        assert_eq!(cache.depths().to_vec(), tangle_ledger::analysis::depths(&t));
        // Caches synced one small round (10 publishers), one `sim_ledger`
        // round (47 appends, a single sweep chunk) and one gossip restart
        // catch-up (130 appends, three chunks) ago: refresh must extend
        // incrementally, never rebuild.
        let stales = [10usize, 47, 130].map(|lag| (lag, AnalysisCache::new(&t.prefix(n - lag))));
        for &(lag, ref stale) in &stales {
            {
                let mut probe = stale.clone();
                assert!(matches!(
                    probe.refresh(&t),
                    RefreshOutcome::Extended(k) if k == lag
                ));
                assert_eq!(probe.weights(), cache.weights());
                assert_eq!(probe.ratings(), cache.ratings());
                assert_eq!(probe.depths(), cache.depths());
            }
            g.bench_function(format!("incremental_refresh_{lag}new_{n}tx"), |b| {
                b.iter_batched(
                    || stale.clone(),
                    |mut c2| {
                        c2.refresh(&t);
                        black_box(c2.len())
                    },
                    BatchSize::SmallInput,
                )
            });
        }
        let (_, stale) = &stales[0];
        g.bench_function(format!("full_rebuild_{n}tx"), |b| {
            b.iter(|| black_box(AnalysisCache::new(&t).len()))
        });
        // Pin the speedup at the 50k scale: the incremental refresh (which
        // pays a full cache clone *plus* the catch-up) must still be ≥5×
        // faster than rebuilding the DP tables from scratch. Median of 9
        // trials keeps this robust in `--test` smoke runs.
        if n > 40_000 {
            let median = |f: &mut dyn FnMut()| {
                let mut samples: Vec<_> = (0..9)
                    .map(|_| {
                        let start = std::time::Instant::now();
                        f();
                        start.elapsed()
                    })
                    .collect();
                samples.sort();
                samples[4]
            };
            let rebuild = median(&mut || {
                black_box(AnalysisCache::new(&t).len());
            });
            let refresh = median(&mut || {
                let mut c2 = stale.clone();
                c2.refresh(&t);
                black_box(c2.len());
            });
            assert!(
                refresh * 5 <= rebuild,
                "incremental refresh must be >=5x faster than a full rebuild \
                 at {n} tx: refresh {refresh:?} vs rebuild {rebuild:?}"
            );
        }
    }
    g.finish();
}

fn bench_gemm(c: &mut Criterion) {
    let mut g = c.benchmark_group("gemm");
    for n in [64usize, 128] {
        let a = Tensor::from_fn(&[n, n], |i| ((i * 37 % 101) as f32) / 101.0);
        let bm = Tensor::from_fn(&[n, n], |i| ((i * 53 % 89) as f32) / 89.0);
        // The blocked/packed kernel behind every variant must agree with
        // the retained naive reference bit-for-bit on the benched shapes.
        for (ta, tb, got) in [
            (false, false, a.matmul(&bm)),
            (false, true, a.matmul_bt(&bm)),
            (true, false, a.matmul_at(&bm)),
        ] {
            let mut want = vec![0.0f32; n * n];
            tinynn::gemm::reference::matmul(
                n,
                n,
                n,
                a.as_slice(),
                ta,
                bm.as_slice(),
                tb,
                &mut want,
            );
            assert_eq!(
                got.as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "blocked gemm (ta={ta}, tb={tb}) diverged from naive at {n}x{n}"
            );
        }
        g.bench_function(format!("matmul_{n}x{n}"), |b| {
            b.iter(|| black_box(a.matmul(&bm)))
        });
        g.bench_function(format!("matmul_bt_{n}x{n}"), |b| {
            b.iter(|| black_box(a.matmul_bt(&bm)))
        });
        g.bench_function(format!("matmul_at_{n}x{n}"), |b| {
            b.iter(|| black_box(a.matmul_at(&bm)))
        });
        // Transpose-variant parity probe: packing normalizes the access
        // pattern, so B-transposed must stay within 1.5× of plain (the old
        // naive bt walked B column-wise and was ~4× slower). Median of 9.
        if n == 128 {
            let median = |f: &mut dyn FnMut()| {
                let mut samples: Vec<_> = (0..9)
                    .map(|_| {
                        let start = std::time::Instant::now();
                        for _ in 0..8 {
                            f();
                        }
                        start.elapsed()
                    })
                    .collect();
                samples.sort();
                samples[4]
            };
            let plain = median(&mut || {
                black_box(a.matmul(&bm));
            });
            let bt = median(&mut || {
                black_box(a.matmul_bt(&bm));
            });
            assert!(
                bt <= plain * 3 / 2,
                "matmul_bt must stay within 1.5x of matmul at {n}x{n}: \
                 bt {bt:?} vs plain {plain:?}"
            );
        }
    }
    g.finish();
}

/// Shared setup for the node-step / eval-cache workloads: a 50-node blobs
/// federation learning over the tangle with tip validation on.
fn eval_workload_cfg() -> learning_tangle::SimConfig {
    learning_tangle::SimConfig {
        nodes_per_round: 5,
        lr: 0.15,
        batch_size: 8,
        eval_fraction: 0.2,
        seed: 9,
        hyper: learning_tangle::TangleHyperParams {
            sample_size: 6,
            confidence_samples: 4,
            tip_validation: true,
            accuracy_bias: 0.5,
            ..learning_tangle::TangleHyperParams::basic()
        },
        ..learning_tangle::SimConfig::default()
    }
}

fn eval_workload_data() -> feddata::FederatedDataset {
    feddata::blobs::generate(
        &feddata::blobs::BlobsConfig {
            users: 50,
            samples_per_user: (24, 32),
            // Validation-heavy split: local evaluation is the hot path this
            // workload measures, mirroring §III-E where tip validation on
            // held-out data dominates node cost.
            train_split: 0.3,
            noise_std: 0.6,
            ..feddata::blobs::BlobsConfig::default()
        },
        41,
    )
}

fn bench_node_step(c: &mut Criterion) {
    use learning_tangle::node::{node_step, RoundContext};
    let mut g = c.benchmark_group("node_step");
    g.sample_size(10);
    let data = eval_workload_data();
    let cfg = eval_workload_cfg();
    let build = || tinynn::zoo::mlp(8, &[12], 4, &mut seeded(5));
    // Grow a representative tangle, then time single node steps against a
    // fixed round context.
    let mut sim = learning_tangle::Simulation::new(data.clone(), cfg.clone(), build);
    for _ in 0..30 {
        sim.round();
    }
    let nodes: Vec<learning_tangle::Node> = data
        .clients
        .into_iter()
        .enumerate()
        .map(|(i, c)| learning_tangle::Node::honest(i, c))
        .collect();
    let ctx = RoundContext::build(
        sim.tangle(),
        &cfg,
        31,
        0xBEEF,
        lt_telemetry::Telemetry::disabled(),
    );
    let scratch = learning_tangle::ScratchPool::new(Box::new(build));
    g.bench_function("honest_step_tip_validation", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let mut rng = seeded(i);
            // A cold cache per step: every evaluation is computed.
            let mut cache =
                learning_tangle::EvalCache::new(learning_tangle::DEFAULT_EVAL_CACHE_CAPACITY);
            black_box(node_step(
                &nodes[(i % 50) as usize],
                &ctx,
                &scratch,
                &cfg,
                &mut rng,
                &mut cache,
            ))
        })
    });
    g.finish();
}

fn bench_eval_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("eval_cache");
    g.sample_size(3);
    let data = eval_workload_data();
    let cfg = eval_workload_cfg();
    let build = || tinynn::zoo::mlp(8, &[12], 4, &mut seeded(5));
    const ROUNDS: usize = 100;
    let run = || {
        let tel = lt_telemetry::Telemetry::new(lt_telemetry::NoopSink);
        let mut sim = learning_tangle::Simulation::new(data.clone(), cfg.clone(), build)
            .with_telemetry(tel.clone());
        for _ in 0..ROUNDS {
            sim.round();
        }
        (sim.evaluate(0).accuracy, tel)
    };
    // This workload re-evaluates the whole ledger every step
    // (`accuracy_bias`), so nearly every probe after a node's first
    // activation must be served from its cache.
    let (_, tel) = run();
    assert!(
        tel.counter_value("eval_cache.hits") > tel.counter_value("eval_cache.misses"),
        "the accuracy-bias workload must mostly hit"
    );
    g.bench_function(format!("sim_{ROUNDS}r_50n_cached"), |b| {
        b.iter(|| black_box(run().0))
    });
    g.finish();
}

fn bench_param_aggregation(c: &mut Criterion) {
    let mut g = c.benchmark_group("param_aggregation");
    for dim in [10_000usize, 100_000] {
        let vs: Vec<ParamVec> = (0..10)
            .map(|i| ParamVec(vec![i as f32 * 0.1; dim]))
            .collect();
        let refs: Vec<&ParamVec> = vs.iter().collect();
        g.bench_function(format!("average_10x{dim}"), |b| {
            b.iter(|| black_box(ParamVec::average(&refs)))
        });
        let weights = vec![1.0f32; 10];
        g.bench_function(format!("weighted_average_10x{dim}"), |b| {
            b.iter(|| black_box(ParamVec::weighted_average(&refs, &weights)))
        });
    }
    g.finish();
}

fn bench_wire_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("wire_codec");
    let p = ParamVec((0..50_000).map(|i| i as f32).collect());
    g.bench_function("encode_50k", |b| {
        b.iter(|| black_box(tinynn::wire::encode(&p)))
    });
    let enc = tinynn::wire::encode(&p);
    g.bench_function("decode_50k", |b| {
        b.iter(|| black_box(tinynn::wire::decode(&enc).unwrap()))
    });
    g.finish();
}

fn bench_training(c: &mut Criterion) {
    let mut g = c.benchmark_group("training");
    g.sample_size(20);
    // CNN train step at experiment scale
    let mut rng = seeded(1);
    let cnn = tinynn::zoo::femnist_cnn(16, 10, tinynn::zoo::CnnConfig::scaled(), &mut rng);
    let x = Tensor::from_fn(&[16, 1, 16, 16], |i| ((i * 31 % 97) as f32) / 97.0);
    let y: Vec<u32> = (0..16).map(|i| (i % 10) as u32).collect();
    g.bench_function("cnn_loss_and_grads_b16", |b| {
        b.iter(|| black_box(cnn.loss_and_grads(&x, &y)))
    });
    // LSTM train step
    let lstm = tinynn::zoo::char_lstm(30, 8, 32, 2, &mut rng);
    let xs = Tensor::from_fn(&[8, 16], |i| (i % 30) as f32);
    let ys: Vec<u32> = (0..8 * 16).map(|i| (i % 30) as u32).collect();
    g.bench_function("lstm_loss_and_grads_b8xT16", |b| {
        b.iter(|| black_box(lstm.loss_and_grads(&xs, &ys)))
    });
    g.finish();
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry_overhead");
    let data = feddata::blobs::generate(
        &feddata::blobs::BlobsConfig {
            users: 8,
            samples_per_user: (24, 32),
            noise_std: 0.6,
            ..feddata::blobs::BlobsConfig::default()
        },
        7,
    );
    let build = || tinynn::zoo::mlp(8, &[12], 4, &mut seeded(5));
    let cfg = learning_tangle::SimConfig {
        nodes_per_round: 4,
        lr: 0.15,
        batch_size: 8,
        eval_fraction: 0.5,
        seed: 3,
        hyper: learning_tangle::TangleHyperParams {
            confidence_samples: 8,
            ..learning_tangle::TangleHyperParams::basic()
        },
        ..learning_tangle::SimConfig::default()
    };
    // Hot-path probe: a context's tip-selection walk with an attached
    // no-op sink against the same walk with the default (disabled) handle
    // (one Option check per span, counter and histogram).
    let mut sim = learning_tangle::Simulation::new(data.clone(), cfg.clone(), build);
    for _ in 0..20 {
        sim.round();
    }
    let noop = lt_telemetry::Telemetry::new(lt_telemetry::NoopSink);
    for (name, handle) in [
        ("disabled", lt_telemetry::Telemetry::disabled()),
        ("noop_telemetry", noop),
    ] {
        let ctx = learning_tangle::node::RoundContext::build(sim.tangle(), &cfg, 21, 5, handle);
        g.bench_function(format!("tip_selection_{name}"), |b| {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
            b.iter(|| black_box(ctx.sample_tip(&mut rng)))
        });
    }
    let t = synthetic_tangle(30, 10);
    let disabled = lt_telemetry::Telemetry::disabled();
    // Cache-refresh probe: `refresh_observed` with a disabled handle must
    // cost the same as the raw `refresh` (the counters are never touched).
    let stale = tangle_ledger::AnalysisCache::new(&t.prefix(t.len() - 10));
    g.bench_function("cache_refresh_raw", |b| {
        b.iter_batched(
            || stale.clone(),
            |mut c2| {
                c2.refresh(&t);
                black_box(c2.len())
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("cache_refresh_noop_telemetry", |b| {
        b.iter_batched(
            || stale.clone(),
            |mut c2| {
                c2.refresh_observed(&t, &disabled);
                black_box(c2.len())
            },
            BatchSize::SmallInput,
        )
    });
    // Whole-round probe: Simulation::round with the default (disabled)
    // handle vs. an attached no-op sink.
    g.sample_size(10);
    g.bench_function("sim_round_disabled", |b| {
        b.iter_batched(
            || learning_tangle::Simulation::new(data.clone(), cfg.clone(), build),
            |mut sim| {
                for _ in 0..3 {
                    black_box(sim.round());
                }
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("sim_round_noop_telemetry", |b| {
        b.iter_batched(
            || {
                learning_tangle::Simulation::new(data.clone(), cfg.clone(), build)
                    .with_telemetry(lt_telemetry::Telemetry::new(lt_telemetry::NoopSink))
            },
            |mut sim| {
                for _ in 0..3 {
                    black_box(sim.round());
                }
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_fault_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("fault_overhead");
    g.sample_size(20);
    // A faultless FaultPlan must add zero cost to Network::step: the fault
    // RNG is only consulted when a perturbation probability is non-zero,
    // so the benign-plan drain must match the no-plan drain.
    use tangle_gossip::{FaultPlan, Latency, Network, NetworkConfig, Topology, TxMessage};
    let cfg = NetworkConfig {
        topology: Topology::RandomRegular { degree: 4 },
        latency: Latency { min: 1, max: 4 },
        loss: 0.0,
        pow_difficulty: 0,
        seed: 11,
        ..NetworkConfig::default()
    };
    let genesis = TxMessage::create(&ParamVec(vec![0.0]), vec![], u64::MAX, 0, 0);
    let drain = |mut net: Network| {
        for i in 0..40u64 {
            let origin = (i % 16) as usize;
            let tip = net.peer(origin).replica().tips()[0];
            let cid = net.peer(origin).content_id_of(tip);
            net.publish(
                origin,
                TxMessage::create(&ParamVec(vec![i as f32; 64]), vec![cid], i, 0, 0),
            );
            net.run_to_quiescence();
        }
        black_box(net.stats.delivered)
    };
    g.bench_function("network_drain_no_plan", |b| {
        b.iter_batched(
            || Network::new(16, &genesis, cfg),
            drain,
            BatchSize::SmallInput,
        )
    });
    g.bench_function("network_drain_benign_plan", |b| {
        b.iter_batched(
            || {
                let mut net = Network::new(16, &genesis, cfg);
                net.install_faults(FaultPlan::default());
                net
            },
            drain,
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_pow(c: &mut Criterion) {
    let mut g = c.benchmark_group("proof_of_work");
    g.sample_size(20);
    let payload = tangle_ledger::pow::digest(b"model payload");
    for difficulty in [8u32, 12] {
        g.bench_function(format!("solve_d{difficulty}"), |b| {
            let mut i = 0u64;
            b.iter_batched(
                || {
                    i += 1;
                    payload ^ i
                },
                |p| black_box(tangle_ledger::pow::solve(p, difficulty)),
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_dataset_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("dataset_generation");
    g.sample_size(10);
    let fcfg = feddata::femnist::FemnistConfig::scaled();
    g.bench_function("femnist_scaled_100users", |b| {
        b.iter(|| black_box(feddata::femnist::generate(&fcfg, 1)))
    });
    let scfg = feddata::shakespeare::ShakespeareConfig::scaled();
    g.bench_function("shakespeare_scaled_60users", |b| {
        b.iter(|| black_box(feddata::shakespeare::generate(&scfg, 1)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_gemm,
    bench_tangle_analysis,
    bench_analysis_cache,
    bench_node_step,
    bench_eval_cache,
    bench_param_aggregation,
    bench_wire_codec,
    bench_telemetry_overhead,
    bench_fault_overhead,
    bench_training,
    bench_pow,
    bench_dataset_generation
);
criterion_main!(benches);
