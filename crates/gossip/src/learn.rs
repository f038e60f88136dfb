//! Decentralized learning over the gossip network.
//!
//! Unlike the round-based simulator (which keeps one global ledger), every
//! peer here trains against **its own replica** — complete with propagation
//! delay, message loss, and partitions — and publishes its result as a
//! gossip broadcast. This is the paper's §VI "distributed implementation
//! ... considering faults introduced by real-world network conditions".

use crate::message::TxMessage;
use crate::network::{Network, NetworkConfig};
use feddata::FederatedDataset;
use learning_tangle::node::{node_step, ModelParams, Node, RoundContext, StepOutcome};
use learning_tangle::{eval_pool_indices, EvalCache, SimConfig};
use lt_telemetry::PhaseRecorder;
use rand::RngExt;
use std::marker::PhantomData;
use tangle_ledger::{AnalysisCache, Tangle};
use tinynn::rng::{derive, seeded};
use tinynn::{ParamVec, Sequential};

/// One Algorithm-2 training step against `replica` at activation `slot`,
/// derived exactly as the round simulator derives round `slot`: the node
/// RNG is `derive(cfg.seed, (slot << 24) ^ peer)`. Factored out so the
/// in-process learner and the `lt-node` daemon produce byte-identical
/// parameters for the same `(seed, slot, peer)` over the same replica —
/// and so a one-activation-per-round gossip run matches the round
/// simulator bit for bit. Evaluations are memoized for this step only:
/// replica ids do not outlive a restart, which replaces the replica.
#[allow(clippy::too_many_arguments)]
pub fn train_step(
    replica: &Tangle<ModelParams>,
    cache: &mut AnalysisCache,
    node: &Node,
    peer: usize,
    slot: u64,
    model: &Sequential,
    cfg: &SimConfig,
    telemetry: &lt_telemetry::Telemetry,
) -> StepOutcome {
    let ctx = RoundContext::build_with_cache(
        replica,
        cache,
        cfg,
        telemetry.clone(),
        &mut PhaseRecorder::inert(),
    );
    let mut node_rng = seeded(derive(cfg.seed, (slot << 24) ^ peer as u64));
    node_step(
        node,
        &ctx,
        replica,
        slot,
        model,
        cfg,
        &mut node_rng,
        &mut EvalCache::default(),
    )
}

/// Evaluate the consensus model held in `replica` exactly as
/// [`learning_tangle::Simulation::evaluate`] does over the same ledger:
/// Algorithm 1 over the whole replica, evaluated in place under `model`'s
/// architecture on the pooled clean held-out data of the shared
/// [`eval_pool_indices`] sample. Returns `(loss, accuracy)` —
/// bit-identical across executors whose replicas are bit-identical.
/// The analysis comes from a caught-up copy of `cache`, the peer's
/// analysis cache, which is left as it is.
pub fn consensus_eval(
    replica: &Tangle<ModelParams>,
    cache: &AnalysisCache,
    nodes: &[Node],
    model: &Sequential,
    cfg: &SimConfig,
    eval_seed: u64,
) -> (f32, f32) {
    let ctx = RoundContext::build_with_cache(
        replica,
        &mut cache.clone(),
        cfg,
        lt_telemetry::Telemetry::disabled(),
        &mut PhaseRecorder::inert(),
    );
    let pool = eval_pool_indices(cfg.seed, eval_seed, nodes.len(), cfg.eval_fraction);
    let clients: Vec<&feddata::ClientData> = pool.iter().map(|&i| &nodes[i].data).collect();
    fedavg::evaluate_params(model, &ctx.reference, &clients)
}

/// A gossip-network learning run.
pub struct GossipLearning<'a> {
    network: Network,
    nodes: Vec<Node>,
    /// The shared architecture every activation evaluates and trains under.
    model: Sequential,
    cfg: SimConfig,
    /// Ticks the network advances per node activation.
    pub ticks_per_activation: u64,
    slot: u64,
    /// The admission difficulty the network's peers enforce; every
    /// publication is mined at it.
    pow_difficulty: u32,
    published: u64,
    discarded: u64,
    rng: tinynn::rng::Rng,
    /// Per-peer analysis caches over each peer's replica. Replicas grow
    /// append-only between activations (incremental catch-up); a crash /
    /// checkpoint-restore replaces the replica wholesale, which the cache
    /// detects and answers with a counted rebuild.
    caches: Vec<AnalysisCache>,
    telemetry: lt_telemetry::Telemetry,
    /// Unused; kept only because `benchmark/` names `GossipLearning<'static>`.
    _lifetime: PhantomData<&'a ()>,
}

impl<'a> GossipLearning<'a> {
    /// Build a network with one peer per client. All peers share a genesis
    /// carrying one fresh model initialization.
    pub fn new(
        data: FederatedDataset,
        cfg: SimConfig,
        net_cfg: NetworkConfig,
        build: impl FnOnce() -> Sequential,
    ) -> Self {
        let model = build();
        let genesis_params = ParamVec::from_model(&model);
        let genesis =
            TxMessage::create(&genesis_params, vec![], u64::MAX, 0, net_cfg.pow_difficulty);
        let n = data.num_clients();
        let pow_difficulty = net_cfg.pow_difficulty;
        let network = Network::new(n, &genesis, net_cfg);
        let nodes = data
            .clients
            .into_iter()
            .enumerate()
            .map(|(i, c)| Node::honest(i, c))
            .collect();
        let rng = seeded(derive(cfg.seed, 0x60551EA2));
        let caches = (0..n)
            .map(|i| AnalysisCache::new(network.peer(i).replica()))
            .collect();
        Self {
            network,
            caches,
            nodes,
            model,
            cfg,
            ticks_per_activation: 1,
            slot: 0,
            pow_difficulty,
            published: 0,
            discarded: 0,
            rng,
            telemetry: lt_telemetry::Telemetry::disabled(),
            _lifetime: PhantomData,
        }
    }

    /// Attach an observability handle to the learner *and* its network
    /// (see `Network::set_telemetry`). Activations then record the
    /// `gossip.published` / `gossip.discarded` counters and a
    /// `wire.encode_us` span around message creation.
    pub fn set_telemetry(&mut self, telemetry: lt_telemetry::Telemetry) {
        self.network.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// The underlying network (replicas, stats, partitions).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Mutable network access (e.g. to partition/heal mid-run).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.network
    }

    /// Publications accepted so far.
    pub fn published(&self) -> u64 {
        self.published
    }

    /// Training results rejected by the local publish gate so far.
    pub fn discarded(&self) -> u64 {
        self.discarded
    }

    /// Activate one specific peer: it runs Algorithm 2 on its replica and
    /// gossips the result. Returns whether it published. A crashed peer
    /// cannot train: the activation is skipped (counted under
    /// `gossip.skipped_down`) while simulated time still advances.
    pub fn activate(&mut self, peer: usize) -> bool {
        if !self.network.is_up(peer) {
            self.telemetry.count("gossip.skipped_down", 1);
            self.network.advance(self.ticks_per_activation);
            return false;
        }
        self.slot += 1;
        let slot = self.slot;
        let replica_len;
        let (publish, new_loss, reference_loss) = {
            let replica = self.network.peer(peer).replica();
            replica_len = replica.len();
            let out = train_step(
                replica,
                &mut self.caches[peer],
                &self.nodes[peer],
                peer,
                slot,
                &self.model,
                &self.cfg,
                &self.telemetry,
            );
            (out.publish, out.new_loss, out.reference_loss)
        };
        let mut local_parents: Vec<u32> = Vec::new();
        let did_publish = match publish {
            Some(p) => {
                local_parents = p.parents.iter().map(|id| id.index() as u32).collect();
                // Translate local parent ids into content ids for the wire.
                let parents = p
                    .parents
                    .iter()
                    .map(|id| {
                        debug_assert!(id.index() < replica_len);
                        self.network.peer(peer).content_id_of(*id)
                    })
                    .collect();
                let msg = {
                    let _span = self.telemetry.span("wire.encode_us");
                    TxMessage::create(&p.params, parents, peer as u64, slot, self.pow_difficulty)
                };
                self.network.publish(peer, msg);
                self.published += 1;
                self.telemetry.count("gossip.published", 1);
                true
            }
            None => {
                self.discarded += 1;
                self.telemetry.count("gossip.discarded", 1);
                false
            }
        };
        // One Step event per activation: `round` is the global activation
        // slot, `parents` are replica-local tx indices (peer-relative).
        self.telemetry.emit(|| {
            lt_telemetry::Event::Step(lt_telemetry::StepEvent {
                round: slot,
                node: peer as u64,
                accepted: did_publish,
                parents: local_parents.clone(),
                new_loss,
                reference_loss,
            })
        });
        self.network.advance(self.ticks_per_activation);
        did_publish
    }

    /// Activate `count` uniformly random peers.
    pub fn run(&mut self, count: u64) {
        for _ in 0..count {
            let peer = self.rng.random_range(0..self.nodes.len());
            self.activate(peer);
        }
    }

    /// Evaluate the consensus model *as seen by* `peer` exactly as the
    /// round simulator's `evaluate` would over the same ledger
    /// (`eval_seed` picks the evaluation pool). When this
    /// learner's replica is bit-identical with a round simulation's
    /// ledger — one activation per round, fully drained — so is the
    /// result. Returns `(loss, accuracy)`.
    pub fn evaluate_consensus(&self, peer: usize, eval_seed: u64) -> (f32, f32) {
        consensus_eval(
            self.network.peer(peer).replica(),
            &self.caches[peer],
            &self.nodes,
            &self.model,
            &self.cfg,
            eval_seed,
        )
    }

    /// Evaluate the consensus model *as seen by* `peer`, on the pooled
    /// clean held-out data of all nodes. Returns `(loss, accuracy)`.
    pub fn evaluate_peer(&self, peer: usize) -> (f32, f32) {
        let replica = self.network.peer(peer).replica();
        let ctx = RoundContext::build_with_cache(
            replica,
            &mut self.caches[peer].clone(),
            &self.cfg,
            lt_telemetry::Telemetry::disabled(),
            &mut PhaseRecorder::inert(),
        );
        let clients: Vec<&feddata::ClientData> = self.nodes.iter().map(|n| &n.data).collect();
        fedavg::evaluate_params(&self.model, &ctx.reference, &clients)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{Latency, Topology};
    use feddata::blobs::{self, BlobsConfig};
    use learning_tangle::TangleHyperParams;
    use tangle_ledger::TxId;

    fn data(users: usize) -> FederatedDataset {
        blobs::generate(
            &BlobsConfig {
                users,
                samples_per_user: (24, 32),
                noise_std: 0.6,
                ..BlobsConfig::default()
            },
            23,
        )
    }

    fn build() -> Sequential {
        tinynn::zoo::mlp(8, &[12], 4, &mut tinynn::rng::seeded(5))
    }

    fn cfg() -> SimConfig {
        SimConfig {
            lr: 0.15,
            batch_size: 8,
            seed: 31,
            hyper: TangleHyperParams {
                reference_avg: 3,
                ..TangleHyperParams::basic()
            },
            ..SimConfig::default()
        }
    }

    #[test]
    fn learning_over_gossip_converges() {
        let mut gl = GossipLearning::new(data(8), cfg(), NetworkConfig::default(), build);
        let (_, acc0) = gl.evaluate_peer(0);
        gl.run(60);
        gl.network_mut().run_to_quiescence();
        let (_, acc1) = gl.evaluate_peer(0);
        assert!(
            acc1 > acc0 + 0.2,
            "gossip learning should converge: {acc0} -> {acc1}"
        );
        assert!(gl.published() > 10);
    }

    #[test]
    fn replicas_converge_after_quiescence() {
        let mut gl = GossipLearning::new(
            data(6),
            cfg(),
            NetworkConfig {
                latency: Latency { min: 1, max: 8 },
                topology: Topology::Ring,
                seed: 3,
                ..NetworkConfig::default()
            },
            build,
        );
        gl.run(40);
        gl.network_mut().run_to_quiescence();
        assert!(
            gl.network().replicas_consistent(),
            "all replicas must hold the same transaction set"
        );
    }

    #[test]
    fn stale_views_during_run_consistent_at_the_end() {
        let mut gl = GossipLearning::new(
            data(6),
            cfg(),
            NetworkConfig {
                latency: Latency { min: 3, max: 10 },
                seed: 7,
                ..NetworkConfig::default()
            },
            build,
        );
        gl.ticks_per_activation = 1; // several activations per propagation
        gl.run(30);
        // mid-run, replicas are allowed to differ...
        gl.network_mut().run_to_quiescence();
        // ...but must reconcile once the wires drain.
        assert!(gl.network().replicas_consistent());
    }

    #[test]
    fn lockstep_with_validation_matches_the_round_simulator() {
        // One activation per round, fully drained, is the round simulator
        // run one node per round. A simulator node keeps its evaluation
        // memo across rounds while every activation here starts from an
        // empty one: in both modes that score candidates, the two must
        // build the same ledger, bit for bit. Both start from six random
        // models approving the genesis and approve one tip per step, so
        // the ledger stays six tips wide and scores pick the parents.
        let schedule: Vec<usize> = (0..24u64).map(|k| (derive(9, k) % 6) as usize).collect();
        for accuracy_bias in [0.0, 0.5] {
            let mut c = cfg();
            c.hyper.tip_validation = true;
            c.hyper.sample_size = 6;
            c.hyper.num_tips = 1;
            c.hyper.accuracy_bias = accuracy_bias;
            let gossip_tel = lt_telemetry::Telemetry::new(lt_telemetry::NoopSink);
            let mut gl = GossipLearning::new(data(6), c.clone(), NetworkConfig::default(), build);
            gl.set_telemetry(gossip_tel.clone());
            // Published one at a time, so every replica holds them in the
            // same order, in the one synthetic round `Simulation::resume`
            // counts before it.
            let genesis = gl.network().peer(0).content_id_of(tangle_ledger::TxId(0));
            for i in 0..6u64 {
                let model = tinynn::zoo::mlp(8, &[12], 4, &mut seeded(100 + i));
                let msg = TxMessage::create(&ParamVec::from_model(&model), vec![genesis], i, 1, 0);
                gl.network_mut().publish(i as usize, msg);
                gl.network_mut().run_to_quiescence();
            }
            gl.slot = 1;
            let start = gl.network().peer(0).replica().clone();
            let sim_tel = lt_telemetry::Telemetry::new(lt_telemetry::NoopSink);
            let mut sim = learning_tangle::Simulation::resume(data(6), c, build, start);
            sim.set_telemetry(sim_tel.clone());
            for &peer in &schedule {
                gl.activate(peer);
                gl.network_mut().run_to_quiescence();
                sim.round_with_nodes(&[peer]);
            }

            let (replica, tangle) = (gl.network().peer(0).replica(), sim.tangle());
            assert!(
                tangle.len() > 7 + schedule.len() / 2,
                "too few publications"
            );
            assert_eq!(
                replica.len(),
                tangle.len(),
                "bias {accuracy_bias}: ledger size"
            );
            for (g, s) in replica.transactions().iter().zip(tangle.transactions()) {
                let at = format!("bias {accuracy_bias}, tx {}", s.id);
                assert_eq!(g.issuer, s.issuer, "{at}: issuer");
                assert_eq!(g.parents, s.parents, "{at}: parents");
                let bits =
                    |p: &ModelParams| p.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&g.payload), bits(&s.payload), "{at}: parameters");
            }
            let sim_eval = sim.evaluate(1);
            let (loss, acc) = gl.evaluate_consensus(0, 1);
            assert_eq!(
                (loss.to_bits(), acc.to_bits()),
                (sim_eval.loss.to_bits(), sim_eval.accuracy.to_bits()),
                "bias {accuracy_bias}: consensus evaluation"
            );
            // Within one activation only the biased step reuses (its
            // candidates were scored for the bias); the simulator also
            // reuses across rounds.
            let hits = |tel: &lt_telemetry::Telemetry| tel.counter_value("eval_cache.hits");
            assert_eq!(hits(&gossip_tel) > 0, accuracy_bias > 0.0);
            assert!(
                hits(&sim_tel) > hits(&gossip_tel),
                "bias {accuracy_bias}: the simulator must reuse evaluations across rounds"
            );
        }
    }

    #[test]
    fn consensus_eval_reads_the_same_from_a_lagging_or_foreign_cache() {
        // A peer's cache lags its replica until the peer's next activation
        // and follows another history after a restart. Evaluation refreshes
        // a copy of it: the result must equal the one from a cache built on
        // the spot.
        let mut gl = GossipLearning::new(data(6), cfg(), NetworkConfig::default(), build);
        gl.run(12);
        gl.network_mut().run_to_quiescence();
        let replica = gl.network().peer(0).replica();
        assert!(replica.len() > 4, "too few publications");
        let lagging = AnalysisCache::new(&replica.prefix(replica.len() / 2));
        // Transaction 2 approves other parents than the replica's does.
        let mut other = replica.prefix(2);
        let parents = match replica.get(TxId(2)).parents.as_slice() {
            [p] if *p == other.genesis() => vec![TxId(1)],
            _ => vec![other.genesis()],
        };
        other
            .add(replica.get(TxId(1)).payload.clone(), parents)
            .unwrap();
        let foreign = AnalysisCache::new(&other);
        assert!(foreign.validate(replica).is_err(), "not a foreign history");
        let eval = |cache: &AnalysisCache| {
            let (loss, acc) = consensus_eval(replica, cache, &gl.nodes, &gl.model, &gl.cfg, 1);
            (loss.to_bits(), acc.to_bits())
        };
        let want = eval(&AnalysisCache::new(replica));
        assert_eq!(eval(&lagging), want, "lagging cache");
        assert_eq!(eval(&foreign), want, "foreign cache");
    }

    #[test]
    fn publications_are_mined_at_the_network_difficulty() {
        // Peers reject what does not meet their admission difficulty, the
        // publisher's own replica first: a learner that under-mines never
        // grows a ledger.
        let mut gl = GossipLearning::new(
            data(6),
            cfg(),
            NetworkConfig {
                pow_difficulty: 8,
                ..NetworkConfig::default()
            },
            build,
        );
        gl.run(12);
        gl.network_mut().run_to_quiescence();
        assert!(gl.published() > 0);
        assert_eq!(gl.network().stats.rejected, 0);
        for peer in 0..6 {
            assert!(
                gl.network().peer(peer).replica().len() > 1,
                "peer {peer} is still at the genesis"
            );
        }
        assert!(gl.network().replicas_consistent());
    }

    #[test]
    fn partition_learning_heals() {
        let mut gl = GossipLearning::new(data(6), cfg(), NetworkConfig::default(), build);
        gl.run(12);
        gl.network_mut().run_to_quiescence();
        gl.network_mut().partition(vec![0, 0, 0, 1, 1, 1]);
        gl.run(20);
        gl.network_mut().run_to_quiescence();
        assert!(
            !gl.network().replicas_consistent(),
            "partition should diverge"
        );
        gl.network_mut().heal();
        gl.network_mut().anti_entropy();
        assert!(
            gl.network().replicas_consistent(),
            "heal + anti-entropy must reconcile the sub-tangles"
        );
        // Both sub-histories survive in the merged ledger.
        let (_, acc) = gl.evaluate_peer(0);
        assert!(acc > 0.3, "merged consensus still usable: {acc}");
    }
}
