//! Asynchronous (round-free) simulation.
//!
//! The tangle needs no rounds — the paper only introduces them to compare
//! against FedAvg (§IV) and names a "distributed implementation ...
//! benchmarked in a simulation environment" as future work (§VI). This
//! module provides that: worker threads independently pick nodes, snapshot
//! the shared ledger, run Algorithm 2 against their snapshot, and publish
//! through a write lock — so nodes genuinely act on *stale* views, like
//! real network participants.

use crate::config::SimConfig;
use crate::eval_cache::{EvalCache, ScratchPool, DEFAULT_EVAL_CACHE_CAPACITY};
use crate::node::RoundContext;
use crate::node::{node_step, ModelParams, Node};
use crossbeam::channel;
use parking_lot::RwLock;
use rand::RngExt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use tangle_ledger::Tangle;
use tinynn::rng::{derive, seeded};
use tinynn::{ParamVec, Sequential};

/// One publication event, as observed on the asynchronous network.
#[derive(Clone, Copy, Debug)]
pub struct PublishEvent {
    /// Worker thread that processed the step.
    pub worker: usize,
    /// Node that published.
    pub node: usize,
    /// Ledger size right after the publication.
    pub tangle_len: usize,
    /// Size of the snapshot the node acted on (staleness =
    /// `tangle_len − snapshot_len − 1`).
    pub snapshot_len: usize,
}

/// Result of an asynchronous run.
pub struct AsyncRun {
    /// The final ledger.
    pub tangle: Tangle<ModelParams>,
    /// All publications in commit order.
    pub events: Vec<PublishEvent>,
    /// Steps whose publish gate rejected the trained model.
    pub discarded: usize,
    /// Steps whose finished work was thrown away because the worker was
    /// killed by a [`WorkerFaultPlan`] (the crash-mid-step analogue of
    /// the gossip network's peer churn).
    pub killed: usize,
}

/// Deterministic worker-fault schedule for the asynchronous simulator —
/// the [`run_async`] mirror of the gossip network's crash/restart churn.
#[derive(Clone, Debug, Default)]
pub struct WorkerFaultPlan {
    /// `(worker, local step)` pairs: the worker dies right as it finishes
    /// that local step, so the completed training result is discarded
    /// (counted in [`AsyncRun::killed`]), and the worker respawns with a
    /// fresh RNG stream. Local steps start at 1 and keep counting across
    /// respawns, so a pair can fire at most once.
    pub kills: Vec<(usize, u64)>,
}

/// What [`run_async`] takes beyond the population and the stopping rule;
/// the default is an unobserved, fault-free run.
#[derive(Clone, Debug, Default)]
pub struct AsyncOptions {
    /// Receives per-publication [`lt_telemetry::AsyncPublishEvent`]s, the
    /// `async.published` / `async.discarded` counters, and `Fault` events
    /// with the `fault.worker_kill` / `fault.worker_respawn` counters.
    pub telemetry: lt_telemetry::Telemetry,
    /// Scheduled worker kills; empty by default.
    pub faults: WorkerFaultPlan,
}

/// Run `workers` concurrent participants until the ledger holds at least
/// `target_transactions` transactions (including the genesis).
///
/// Node behaviour activation (`from_round`) is interpreted against the
/// *snapshot length* rather than a round number. With `workers == 1` the
/// run is fully deterministic for a given seed.
pub fn run_async(
    nodes: &[Node],
    cfg: &SimConfig,
    build: impl Fn() -> Sequential + Sync,
    workers: usize,
    target_transactions: usize,
    opts: &AsyncOptions,
) -> AsyncRun {
    let AsyncOptions { telemetry, faults } = opts;
    assert!(workers >= 1, "need at least one worker");
    let genesis = Arc::new(ParamVec::from_model(&build()));
    // One scratch-model pool shared by all workers; params are fully
    // assigned before every use so sharing is invisible.
    let scratch = ScratchPool::new(Box::new(&build));
    let ledger = RwLock::new(Tangle::new(genesis));
    let done = AtomicBool::new(false);
    let (tx_events, rx_events) = channel::unbounded::<PublishEvent>();
    let (tx_disc, rx_disc) = channel::unbounded::<()>();
    let (tx_kill, rx_kill) = channel::unbounded::<()>();

    std::thread::scope(|scope| {
        for w in 0..workers {
            let ledger = &ledger;
            let done = &done;
            let scratch = &scratch;
            let tx_events = tx_events.clone();
            let tx_disc = tx_disc.clone();
            let tx_kill = tx_kill.clone();
            let telemetry = telemetry.clone();
            scope.spawn(move || {
                let mut rng = seeded(derive(cfg.seed, 0xA11C ^ w as u64));
                // Worker-local analysis cache: snapshots of the append-only
                // ledger only ever extend each other, so every step is an
                // incremental catch-up (kills don't invalidate it either).
                let mut cache = tangle_ledger::AnalysisCache::new(&*ledger.read());
                // Worker-local eval memoization, one cache per *node*
                // (losses depend on the node's own held-out data, so
                // caches can never be shared across nodes). Snapshots of
                // the append-only ledger share one signature chain, so
                // entries stay valid across snapshots and worker kills.
                let mut eval: Vec<EvalCache> = (0..nodes.len())
                    .map(|_| EvalCache::new(DEFAULT_EVAL_CACHE_CAPACITY))
                    .collect();
                let mut generation = 0u64;
                let mut step = 0u64;
                while !done.load(Ordering::Relaxed) {
                    step += 1;
                    let ni = rng.random_range(0..nodes.len());
                    // Snapshot under a read lock, then work lock-free.
                    let snapshot = ledger.read().clone();
                    let snapshot_len = snapshot.len();
                    let vround = snapshot_len as u64;
                    let ctx = RoundContext::build_with_cache(
                        &snapshot,
                        &mut cache,
                        cfg,
                        vround,
                        derive(cfg.seed, (w as u64) << 40 | step),
                        telemetry.clone(),
                    );
                    let mut node_rng = seeded(derive(
                        cfg.seed,
                        ((w as u64) << 48) ^ (step << 8) ^ ni as u64,
                    ));
                    let out =
                        node_step(&nodes[ni], &ctx, scratch, cfg, &mut node_rng, &mut eval[ni]);
                    if faults.kills.iter().any(|&(kw, ks)| kw == w && ks == step) {
                        // The worker dies with its finished step in hand:
                        // the work is lost, the worker respawns on a new
                        // RNG stream.
                        let _ = tx_kill.send(());
                        telemetry.count("fault.worker_kill", 1);
                        telemetry.emit(|| {
                            lt_telemetry::Event::Fault(lt_telemetry::FaultEvent {
                                at: step,
                                peer: w as u64,
                                kind: "worker_kill".to_string(),
                            })
                        });
                        generation += 1;
                        rng = seeded(derive(cfg.seed, 0xA11C ^ w as u64 ^ (generation << 32)));
                        telemetry.count("fault.worker_respawn", 1);
                        telemetry.emit(|| {
                            lt_telemetry::Event::Fault(lt_telemetry::FaultEvent {
                                at: step,
                                peer: w as u64,
                                kind: "worker_respawn".to_string(),
                            })
                        });
                        continue;
                    }
                    match out.publish {
                        Some(p) => {
                            let mut guard = ledger.write();
                            // Parents exist in the snapshot, which is a
                            // prefix of the live ledger (append-only).
                            guard
                                .add_meta(Arc::new(p.params), p.parents, ni as u64, vround)
                                .expect("snapshot is a prefix of the ledger");
                            let len = guard.len();
                            drop(guard);
                            let _ = tx_events.send(PublishEvent {
                                worker: w,
                                node: ni,
                                tangle_len: len,
                                snapshot_len,
                            });
                            telemetry.count("async.published", 1);
                            telemetry.emit(|| {
                                lt_telemetry::Event::AsyncPublish(lt_telemetry::AsyncPublishEvent {
                                    worker: w as u64,
                                    node: ni as u64,
                                    tangle_len: len as u64,
                                    snapshot_len: snapshot_len as u64,
                                })
                            });
                            if len >= target_transactions {
                                done.store(true, Ordering::Relaxed);
                            }
                        }
                        None => {
                            telemetry.count("async.discarded", 1);
                            let _ = tx_disc.send(());
                        }
                    }
                }
            });
        }
        drop(tx_events);
        drop(tx_disc);
        drop(tx_kill);
    });

    let events: Vec<PublishEvent> = rx_events.try_iter().collect();
    let discarded = rx_disc.try_iter().count();
    let killed = rx_kill.try_iter().count();
    AsyncRun {
        tangle: ledger.into_inner(),
        events,
        discarded,
        killed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TangleHyperParams;
    use feddata::blobs::{self, BlobsConfig};
    use tinynn::rng::seeded as tseed;

    fn nodes() -> Vec<Node> {
        let ds = blobs::generate(
            &BlobsConfig {
                users: 8,
                samples_per_user: (24, 30),
                noise_std: 0.6,
                ..BlobsConfig::default()
            },
            13,
        );
        ds.clients
            .into_iter()
            .enumerate()
            .map(|(i, c)| Node::honest(i, c))
            .collect()
    }

    fn build() -> Sequential {
        tinynn::zoo::mlp(8, &[12], 4, &mut tseed(5))
    }

    fn cfg() -> SimConfig {
        SimConfig {
            nodes_per_round: 4,
            lr: 0.15,
            batch_size: 8,
            seed: 21,
            hyper: TangleHyperParams {
                confidence_samples: 6,
                ..TangleHyperParams::basic()
            },
            ..SimConfig::default()
        }
    }

    #[test]
    fn single_worker_reaches_target_deterministically() {
        let ns = nodes();
        let a = run_async(&ns, &cfg(), build, 1, 12, &AsyncOptions::default());
        let b = run_async(&ns, &cfg(), build, 1, 12, &AsyncOptions::default());
        assert!(a.tangle.len() >= 12);
        assert_eq!(a.tangle.len(), b.tangle.len());
        assert_eq!(a.events.len(), b.events.len());
        // commit order identical under one worker
        for (x, y) in a.events.iter().zip(&b.events) {
            assert_eq!(x.node, y.node);
            assert_eq!(x.tangle_len, y.tangle_len);
        }
    }

    #[test]
    fn multi_worker_reaches_target() {
        let ns = nodes();
        let run = run_async(&ns, &cfg(), build, 3, 15, &AsyncOptions::default());
        assert!(run.tangle.len() >= 15);
        // every event recorded a consistent snapshot
        for e in &run.events {
            assert!(e.snapshot_len < e.tangle_len);
        }
    }

    #[test]
    fn events_track_all_publications() {
        let ns = nodes();
        let run = run_async(&ns, &cfg(), build, 2, 10, &AsyncOptions::default());
        // genesis + events = ledger size (no other writer exists)
        assert_eq!(run.events.len() + 1, run.tangle.len());
    }

    /// Everything a single-worker run decides: per transaction its issuer,
    /// parents and parameter bits; per publication `(node, tangle_len,
    /// snapshot_len)` in commit order; steps discarded; steps killed.
    type RunTrace = (
        Vec<(u64, Vec<u32>, Vec<u32>)>,
        Vec<(usize, usize, usize)>,
        usize,
        usize,
    );

    fn ledger_bits(tangle: &Tangle<ModelParams>) -> Vec<(u64, Vec<u32>, Vec<u32>)> {
        tangle
            .transactions()
            .iter()
            .map(|tx| {
                (
                    tx.issuer,
                    tx.parents.iter().map(|p| p.index() as u32).collect(),
                    tx.payload.as_slice().iter().map(|v| v.to_bits()).collect(),
                )
            })
            .collect()
    }

    /// Oracle for a one-worker run: worker 0's loop replayed on the
    /// calling thread, with the full DPs per step instead of the worker's
    /// `AnalysisCache`, and one eval cache per node in plain sight — kept
    /// across steps and kills when `warm`, emptied before every step
    /// otherwise. Shares only the step on an already-built context with
    /// [`run_async`].
    fn replay_single_worker(
        ns: &[Node],
        cfg: &SimConfig,
        target: usize,
        faults: &WorkerFaultPlan,
        warm: bool,
        tel: &lt_telemetry::Telemetry,
    ) -> RunTrace {
        let scratch = ScratchPool::new(Box::new(build));
        let mut tangle = Tangle::new(Arc::new(ParamVec::from_model(&build())));
        let mut eval: Vec<EvalCache> = (0..ns.len())
            .map(|_| EvalCache::new(DEFAULT_EVAL_CACHE_CAPACITY))
            .collect();
        let mut rng = seeded(derive(cfg.seed, 0xA11C));
        let (mut generation, mut step) = (0u64, 0u64);
        let (mut events, mut discarded, mut killed) = (Vec::new(), 0, 0);
        while tangle.len() < target {
            step += 1;
            let ni = rng.random_range(0..ns.len());
            if !warm {
                eval[ni].invalidate_all(&lt_telemetry::Telemetry::disabled());
            }
            let snapshot_len = tangle.len();
            let vround = snapshot_len as u64;
            let ctx =
                RoundContext::build(&tangle, cfg, vround, derive(cfg.seed, step), tel.clone());
            let mut node_rng = seeded(derive(cfg.seed, (step << 8) ^ ni as u64));
            let out = node_step(&ns[ni], &ctx, &scratch, cfg, &mut node_rng, &mut eval[ni]);
            if faults.kills.contains(&(0, step)) {
                killed += 1;
                generation += 1;
                rng = seeded(derive(cfg.seed, 0xA11C ^ (generation << 32)));
                continue;
            }
            match out.publish {
                Some(p) => {
                    tangle
                        .add_meta(Arc::new(p.params), p.parents, ni as u64, vround)
                        .expect("parents come from this ledger");
                    events.push((ni, tangle.len(), snapshot_len));
                }
                None => discarded += 1,
            }
        }
        (ledger_bits(&tangle), events, discarded, killed)
    }

    #[test]
    fn eval_cache_single_worker_matches_serial_replay() {
        // With one worker the async run is fully deterministic, so the
        // worker's analysis cache and per-node eval caches must be
        // invisible — with and without kills, which must not cost the
        // worker its memo either.
        let ns = nodes();
        let mut c = cfg();
        c.hyper.tip_validation = true;
        c.hyper.sample_size = 6;
        // The bias path probes every transaction per step, so a node's
        // second activation is guaranteed to hit its cache.
        c.hyper.accuracy_bias = 0.5;
        let probes = |tel: &lt_telemetry::Telemetry| {
            (
                tel.counter_value("eval_cache.hits"),
                tel.counter_value("eval_cache.misses"),
            )
        };
        for kills in [vec![], vec![(0, 2), (0, 5)]] {
            let faults = WorkerFaultPlan { kills };
            let tel = lt_telemetry::Telemetry::new(lt_telemetry::NoopSink);
            let opts = AsyncOptions {
                telemetry: tel.clone(),
                faults: faults.clone(),
            };
            let run = run_async(&ns, &c, build, 1, 40, &opts);
            let trace: RunTrace = (
                ledger_bits(&run.tangle),
                run.events
                    .iter()
                    .map(|e| (e.node, e.tangle_len, e.snapshot_len))
                    .collect(),
                run.discarded,
                run.killed,
            );
            assert_eq!(trace.3, faults.kills.len(), "every scheduled kill fires");
            let warm_tel = lt_telemetry::Telemetry::new(lt_telemetry::NoopSink);
            let warm = replay_single_worker(&ns, &c, 40, &faults, true, &warm_tel);
            let cold_tel = lt_telemetry::Telemetry::new(lt_telemetry::NoopSink);
            let cold = replay_single_worker(&ns, &c, 40, &faults, false, &cold_tel);
            assert_eq!(trace, cold, "memoization must be invisible");
            assert_eq!(trace, warm);
            assert_eq!(
                probes(&tel),
                probes(&warm_tel),
                "the worker must probe like one cache per node kept for the whole run"
            );
            assert!(
                probes(&tel).0 > probes(&cold_tel).0,
                "the memoized run must serve hits across steps"
            );
        }
    }

    #[test]
    fn worker_kills_discard_finished_work_deterministically() {
        let ns = nodes();
        let plan = WorkerFaultPlan {
            kills: vec![(0, 2), (0, 5)],
        };
        let run = |plan: &WorkerFaultPlan| {
            let opts = AsyncOptions {
                faults: plan.clone(),
                ..AsyncOptions::default()
            };
            run_async(&ns, &cfg(), build, 1, 10, &opts)
        };
        let a = run(&plan);
        assert_eq!(a.killed, 2, "both scheduled kills must fire");
        // killed steps published nothing, so the invariant still holds
        assert_eq!(a.events.len() + 1, a.tangle.len());
        assert!(a.tangle.len() >= 10);
        // same plan, same trace
        let b = run(&plan);
        assert_eq!(a.tangle.len(), b.tangle.len());
        assert_eq!(a.killed, b.killed);
        for (x, y) in a.events.iter().zip(&b.events) {
            assert_eq!(x.node, y.node);
            assert_eq!(x.tangle_len, y.tangle_len);
        }
    }

    #[test]
    fn kills_are_observable_in_telemetry() {
        let ns = nodes();
        let tel = lt_telemetry::Telemetry::new(lt_telemetry::NoopSink);
        let opts = AsyncOptions {
            telemetry: tel.clone(),
            faults: WorkerFaultPlan {
                kills: vec![(0, 3)],
            },
        };
        let run = run_async(&ns, &cfg(), build, 1, 8, &opts);
        assert_eq!(run.killed, 1);
        assert_eq!(tel.counter_value("fault.worker_kill"), 1);
        assert_eq!(tel.counter_value("fault.worker_respawn"), 1);
    }
}
