//! The round-based learning-tangle simulator used for every paper
//! experiment.
//!
//! Training is organized in rounds for comparability with FedAvg (paper
//! §IV): each round samples `nodes_per_round` nodes, all of them see the
//! tangle *as of the end of the previous round*, run Algorithm 2
//! concurrently, and their publications are appended together at the round
//! barrier.

use crate::config::{SimConfig, TangleHyperParams};
use crate::dp::DpConfig;
use crate::eval_cache::EvalCache;
use crate::node::{
    node_step, walk_table, ModelParams, Node, RoundContext, StepOutcome, EVALUATE_SPAN, TRAIN_SPAN,
};
use feddata::{ClientData, FederatedDataset};
use lt_telemetry::{Event, PhaseRecorder, ReferenceEntry, RoundEvent, StepEvent, Telemetry};
use rand::RngExt;
use rayon::prelude::*;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex, PoisonError};
use tangle_ledger::walk::WalkTable;
use tangle_ledger::{AnalysisCache, Tangle, TangleAnalysis, TangleRead, TangleView};
use tinynn::loss::predictions;
use tinynn::rng::{derive, seeded};
use tinynn::{ParamVec, Sequential};

/// Statistics of one simulated round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundStats {
    /// Round index (1-based).
    pub round: u64,
    /// Nodes sampled this round.
    pub sampled: usize,
    /// Transactions actually published.
    pub published: usize,
    /// Publications issued by nodes behaving maliciously this round.
    pub malicious_published: usize,
    /// Tip count after the round.
    pub tips: usize,
}

/// Result of a consensus-model evaluation.
#[derive(Clone, Copy, Debug)]
pub struct EvalResult {
    /// Accuracy on the pooled clean held-out data of the sampled clients.
    pub accuracy: f32,
    /// Cross-entropy loss on the same pool.
    pub loss: f32,
    /// Fraction of the reference transactions issued by nodes that were
    /// malicious when they published.
    pub reference_poisoned_fraction: f32,
}

/// The analysis of one round-end ledger prefix. Weights, ratings and the
/// walk table (exit mass and confidence) are a pure function of the prefix
/// (and the hyper-parameters), so under a
/// [`crate::config::NetworkModel`] they are computed once and shared by
/// every node whose delayed view is that prefix.
struct PrefixAnalysis {
    /// Ledger size at the end of the analysed round.
    len: usize,
    analysis: Arc<TangleAnalysis>,
    walk: Arc<WalkTable>,
}

impl PrefixAnalysis {
    /// Run the full DPs over the first `len` transactions of `tangle` —
    /// deliberately not the incremental [`AnalysisCache`], which follows
    /// the ledger head and cannot serve an older prefix. The only place
    /// production reaches the batch DPs. `phases` times the two parts:
    /// `full` (the DPs) and `walk_table`.
    fn compute(
        tangle: &Tangle<ModelParams>,
        len: usize,
        hyper: &TangleHyperParams,
        telemetry: &Telemetry,
        phases: &mut PhaseRecorder<'_>,
    ) -> Self {
        let view = TangleView::new(tangle, len);
        let (analysis, depths) = phases.measure("full", |_| {
            let analysis = Arc::new(TangleAnalysis::compute_observed(&view, telemetry));
            (analysis, tangle_ledger::analysis::depths(&view))
        });
        let walk = phases.measure("walk_table", |_| {
            walk_table(&view, &analysis, &depths, hyper, telemetry)
        });
        Self {
            len,
            analysis,
            walk,
        }
    }
}

/// Run a round's node steps `f` as phase `step`, and add next to it the
/// busy time of their evaluations and local training, summed over the
/// threads that ran them: `evaluate` and `train` (the round's growth of
/// their span sums). A sum over threads can exceed `step`.
fn measure_step<R>(phases: &mut PhaseRecorder<'_>, tel: &Telemetry, f: impl FnOnce() -> R) -> R {
    if !phases.active() {
        return f();
    }
    let busy = || [EVALUATE_SPAN, TRAIN_SPAN].map(|span| tel.histogram_totals(span).1);
    let before = busy();
    let out = phases.measure("step", |_| f());
    let after = busy();
    phases.add("evaluate", after[0] - before[0]);
    phases.add("train", after[1] - before[1]);
    out
}

/// A complete learning-tangle run: population, ledger, and configuration.
pub struct Simulation<'a> {
    nodes: Vec<Node>,
    tangle: Tangle<ModelParams>,
    /// The shared architecture: every worker evaluates ledger payloads in
    /// place under it and trains on a copy sharing its layers.
    model: Sequential,
    cfg: SimConfig,
    dp: Option<DpConfig>,
    round: u64,
    /// Under a [`crate::config::NetworkModel`]: the analyses of the last
    /// `max_delay_rounds + 1` round-end prefixes, newest (the end of the
    /// previous round) last — every ledger state a delayed node can still
    /// be acting on. One entry is computed per round and shared by all of
    /// the round's nodes. Empty on the ideal network.
    prefixes: VecDeque<PrefixAnalysis>,
    /// Publications dropped by the lossy network so far.
    lost_publications: u64,
    /// Incremental analysis of the ledger: it serves the shared round
    /// context of the ideal network and, through a caught-up copy, every
    /// consensus evaluation. Under a `NetworkModel` the rounds analyse
    /// `prefixes` instead and never refresh it. A pure optimization: the
    /// cached weights, ratings and depths equal the batch DPs bit for bit.
    cache: AnalysisCache,
    /// Per-node evaluation memo, kept for the whole run: `tangle` only
    /// appends and every delayed view is a prefix of it, so a transaction
    /// id never names another transaction. A pure optimization, like the
    /// analysis cache: probes consume no randomness.
    eval: Vec<Mutex<EvalCache>>,
    /// Observability handle; disabled (no-op) unless attached.
    telemetry: Telemetry,
    /// `tangle.walks` on the handle when it was attached: the handle may
    /// outlive one simulation, and `Round.walk_count` counts this one's
    /// draws only.
    walks_at_attach: u64,
    /// Unused; kept only because `benchmark/` names `Simulation<'static>`.
    _lifetime: PhantomData<&'a ()>,
}

impl<'a> Simulation<'a> {
    /// Create a simulation over a federated dataset. The genesis
    /// transaction carries one fresh model initialization — the shared
    /// starting point, like the initial model a FedAvg server distributes.
    pub fn new(data: FederatedDataset, cfg: SimConfig, build: impl FnOnce() -> Sequential) -> Self {
        let model = build();
        let genesis = Arc::new(ParamVec::from_model(&model));
        Self::from_ledger(data, cfg, model, Tangle::new(genesis), 0)
    }

    /// A simulation of architecture `model` whose ledger is `tangle` after
    /// `round` completed rounds.
    fn from_ledger(
        data: FederatedDataset,
        cfg: SimConfig,
        model: Sequential,
        tangle: Tangle<ModelParams>,
        round: u64,
    ) -> Self {
        let nodes: Vec<Node> = data
            .clients
            .into_iter()
            .enumerate()
            .map(|(i, c)| Node::honest(i, c))
            .collect();
        Self {
            eval: nodes.iter().map(|_| Mutex::default()).collect(),
            nodes,
            cache: AnalysisCache::new(&tangle),
            tangle,
            model,
            cfg,
            dp: None,
            round,
            prefixes: VecDeque::new(),
            lost_publications: 0,
            telemetry: Telemetry::disabled(),
            walks_at_attach: 0,
            _lifetime: PhantomData,
        }
    }

    /// Publications dropped so far by the lossy-network model.
    pub fn lost_publications(&self) -> u64 {
        self.lost_publications
    }

    /// Attach an observability handle (builder style). Training rounds
    /// record metrics and emit [`Event`]s through it; evaluation helpers
    /// stay unobserved so counters reflect training work only.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.set_telemetry(telemetry);
        self
    }

    /// Attach or replace the observability handle in place.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.walks_at_attach = telemetry.counter_value("tangle.walks");
        self.telemetry = telemetry;
    }

    /// The current observability handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Enable differential-privacy noise on all published parameters.
    pub fn with_dp(mut self, dp: DpConfig) -> Self {
        self.dp = Some(dp);
        self
    }

    /// Resume from a persisted ledger (see [`crate::persist`]): the
    /// network keeps its full history; training continues from whatever
    /// consensus the saved tangle encodes. The restored transactions are
    /// attributed to one synthetic pre-resume round (before which a
    /// delayed node sees only the genesis).
    ///
    /// # Panics
    /// Panics if the ledger's parameter dimension does not match the model
    /// architecture produced by `build`.
    pub fn resume(
        data: FederatedDataset,
        cfg: SimConfig,
        build: impl FnOnce() -> Sequential,
        tangle: Tangle<ModelParams>,
    ) -> Self {
        let model = build();
        let expect = model.param_count();
        for tx in tangle.transactions() {
            assert_eq!(
                tx.payload.len(),
                expect,
                "persisted ledger does not match the model architecture"
            );
        }
        let mut sim = Self::from_ledger(data, cfg, model, tangle, 1);
        if sim.cfg.network.is_some() {
            // Round 0 of the synthetic history: the genesis alone.
            sim.prefixes.push_back(PrefixAnalysis::compute(
                &sim.tangle,
                1,
                &sim.cfg.hyper,
                &sim.telemetry,
                &mut PhaseRecorder::inert(),
            ));
        }
        sim
    }

    /// The node population (e.g. for attack assignment).
    pub fn nodes_mut(&mut self) -> &mut [Node] {
        &mut self.nodes
    }

    /// The node population, read-only.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The ledger.
    pub fn tangle(&self) -> &Tangle<ModelParams> {
        &self.tangle
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Run one round.
    pub fn round(&mut self) -> RoundStats {
        self.round += 1;
        let idx = self.sample_nodes(self.round);
        self.run_round(self.round, idx)
    }

    /// The seeded sample of nodes active in `round`.
    fn sample_nodes(&self, round: u64) -> Vec<usize> {
        let mut rng = seeded(derive(self.cfg.seed, round));
        let n = self.nodes.len();
        let k = self.cfg.nodes_per_round.clamp(1, n);
        let mut idx: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.random_range(0..=i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }

    /// Scriptable activation-order hook: run the next round activating
    /// exactly `idx` (in that order) instead of the seeded Fisher–Yates
    /// sample. Everything downstream of node selection — the walk table,
    /// per-node RNG streams, the publish barrier, telemetry — is identical
    /// to [`Self::round`], so a scripted run is bit-reproducible and can be
    /// compared step-for-step against other executors driven through the
    /// same schedule (the conformance harness's differential oracle).
    ///
    /// # Panics
    /// Panics if `idx` is empty or names a node outside the population.
    pub fn round_with_nodes(&mut self, idx: &[usize]) -> RoundStats {
        assert!(!idx.is_empty(), "a round must activate at least one node");
        assert!(
            idx.iter().all(|&ni| ni < self.nodes.len()),
            "scripted activation out of range"
        );
        self.round += 1;
        let round = self.round;
        self.run_round(round, idx.to_vec())
    }

    /// The body shared by [`Self::round`] and [`Self::round_with_nodes`]:
    /// one full round over an already-chosen activation list.
    fn run_round(&mut self, round: u64, idx: Vec<usize>) -> RoundStats {
        // All sampled nodes run Algorithm 2. On an ideal network they share
        // one round context (everyone sees the end of the previous round);
        // under a NetworkModel each node acts on its own stale prefix, with
        // its own tip draws from that prefix's shared analysis and walk
        // table.
        let tel = self.telemetry.clone();
        let mut phases = tel.phases();
        let mut reference_entries: Vec<ReferenceEntry> = Vec::new();
        let outcomes: Vec<(usize, StepOutcome)> = match self.cfg.network {
            None => {
                // Split the borrows so the cache can be refreshed while the
                // context keeps a shared reference to the tangle.
                let (tangle, cache) = (&self.tangle, &mut self.cache);
                let ctx = phases.measure("analysis", |phases| {
                    RoundContext::build_with_cache(
                        tangle,
                        cache,
                        &self.cfg,
                        round,
                        tel.clone(),
                        phases,
                    )
                });
                if tel.enabled() {
                    reference_entries = ctx.reference_entries();
                }
                measure_step(&mut phases, &tel, || {
                    idx.par_iter()
                        .map(|&ni| {
                            let mut node_rng =
                                seeded(derive(self.cfg.seed, (round << 24) ^ ni as u64));
                            self.step_node(ni, &ctx, &mut node_rng)
                        })
                        .collect()
                })
            }
            Some(net) => {
                // The ledger as it stands is the end of the previous round:
                // analyse it once, and forget the prefix no delay reaches
                // any more.
                let (tangle, prefixes) = (&self.tangle, &mut self.prefixes);
                phases.measure("analysis", |phases| {
                    if prefixes.len() as u64 > net.max_delay_rounds {
                        prefixes.pop_front();
                    }
                    prefixes.push_back(PrefixAnalysis::compute(
                        tangle,
                        tangle.len(),
                        &self.cfg.hyper,
                        &tel,
                        phases,
                    ));
                });
                let prefixes = &self.prefixes;
                measure_step(&mut phases, &tel, || {
                    idx.par_iter()
                        .map(|&ni| {
                            let mut node_rng =
                                seeded(derive(self.cfg.seed, (round << 24) ^ ni as u64));
                            let delay = node_rng.random_range(0..=net.max_delay_rounds);
                            // Rounds back from the newest prefix, stopping
                            // at the genesis (round 0).
                            let age = delay.min(round - 1) as usize;
                            let prefix = &prefixes[prefixes.len() - 1 - age];
                            // Zero-copy stale view: O(1), no payload clones.
                            let view = TangleView::new(&self.tangle, prefix.len);
                            let ctx = RoundContext::from_analysis(
                                &view,
                                Arc::clone(&prefix.analysis),
                                Arc::clone(&prefix.walk),
                                &self.cfg,
                                round,
                                tel.clone(),
                            );
                            self.step_node(ni, &ctx, &mut node_rng)
                        })
                        .collect()
                })
            }
        };
        self.publish_round(round, outcomes, reference_entries, &tel, phases)
    }

    /// Algorithm 2 for node `ni` on `ctx`, through the node's eval cache
    /// and the shared architecture.
    fn step_node<T: TangleRead<Payload = ModelParams> + Sync>(
        &self,
        ni: usize,
        ctx: &RoundContext<'_, T>,
        node_rng: &mut impl RngExt,
    ) -> (usize, StepOutcome) {
        let out = node_step(
            &self.nodes[ni],
            ctx,
            &self.model,
            &self.cfg,
            node_rng,
            &mut self.eval[ni].lock().unwrap_or_else(PoisonError::into_inner),
        );
        (ni, out)
    }

    /// The round barrier: publish every node's outcome at once, then emit
    /// the round's events and statistics.
    fn publish_round(
        &mut self,
        round: u64,
        outcomes: Vec<(usize, StepOutcome)>,
        reference_entries: Vec<ReferenceEntry>,
        tel: &Telemetry,
        mut phases: PhaseRecorder<'_>,
    ) -> RoundStats {
        let k = outcomes.len();
        let mut published = 0;
        let mut malicious_published = 0;
        let mut rejected = 0u64;
        let mut dp_rng = seeded(derive(self.cfg.seed, round ^ 0xD11F_F00D));
        let mut loss_rng = seeded(derive(self.cfg.seed, round ^ 0x1057_0000));
        phases.measure("publish", |_| {
            for (ni, out) in outcomes {
                let mut accepted = false;
                let mut parents: Vec<u32> = Vec::new();
                match out.publish {
                    None => rejected += 1,
                    Some(mut p) => {
                        let lost = self.cfg.network.is_some_and(|net| {
                            net.publish_loss > 0.0
                                && loss_rng.random_range(0.0..1.0) < net.publish_loss
                        });
                        if lost {
                            self.lost_publications += 1;
                            tel.count("sim.lost_publications", 1);
                        } else {
                            if let Some(dp) = &self.dp {
                                // Privatize relative to the averaged parent base.
                                let bases: Vec<&ParamVec> = p
                                    .parents
                                    .iter()
                                    .map(|id| self.tangle.get(*id).payload.as_ref())
                                    .collect();
                                let base = ParamVec::average(&bases);
                                p.params = crate::dp::privatize(&p.params, &base, dp, &mut dp_rng);
                            }
                            if self.nodes[ni].is_malicious(round) {
                                malicious_published += 1;
                            }
                            parents = p.parents.iter().map(|id| id.index() as u32).collect();
                            self.tangle
                                .add_meta(Arc::new(p.params), p.parents, ni as u64, round)
                                .expect("parents come from the same tangle");
                            published += 1;
                            accepted = true;
                        }
                    }
                }
                tel.emit(|| {
                    Event::Step(StepEvent {
                        round,
                        node: ni as u64,
                        accepted,
                        parents,
                        new_loss: out.new_loss,
                        reference_loss: out.reference_loss,
                    })
                });
            }
        });
        let tips = self.tangle.tip_count();
        tel.count("sim.published", published as u64);
        tel.count("sim.rejected", rejected);
        if tel.enabled() {
            let walk_count = tel.counter_value("tangle.walks") - self.walks_at_attach;
            let phase_us = phases.finish();
            let tangle_len = self.tangle.len() as u64;
            let lost_publications = self.lost_publications;
            tel.emit(|| {
                Event::Round(RoundEvent {
                    round,
                    sampled: k as u64,
                    published: published as u64,
                    rejected,
                    malicious_published: malicious_published as u64,
                    lost_publications,
                    tip_count: tips as u64,
                    tangle_len,
                    reference: reference_entries,
                    walk_count,
                    phase_us,
                })
            });
        }
        RoundStats {
            round,
            sampled: k,
            published,
            malicious_published,
            tips,
        }
    }

    /// Algorithm 1 over the whole current ledger, as the next round's
    /// shared context would run it — unobserved, so telemetry counts
    /// training work only. The weights and ratings come from a caught-up
    /// copy of the analysis cache: the cache itself lags the ledger by
    /// the last round's publications until the next round refreshes it
    /// (under a `NetworkModel`, by every round since it was built).
    fn consensus(&self) -> RoundContext<'_> {
        let round = self.round + 1;
        RoundContext::build_with_cache(
            &self.tangle,
            &mut self.cache.clone(),
            &self.cfg,
            round,
            Telemetry::disabled(),
            &mut PhaseRecorder::inert(),
        )
    }

    /// Compute the current consensus parameters (Algorithm 1 over the
    /// latest snapshot, averaging `reference_avg` transactions).
    pub fn consensus_params(&self) -> ParamVec {
        self.consensus().reference
    }

    /// Parameters and poisoned-issuer fraction of the current reference
    /// set.
    fn reference_info(&self) -> (ParamVec, f32) {
        let ctx = self.consensus();
        let mut poisoned = 0usize;
        for id in &ctx.reference_ids {
            let tx = self.tangle.get(*id);
            if tx.issuer != u64::MAX {
                let node = &self.nodes[tx.issuer as usize];
                if node.is_malicious(tx.round) {
                    poisoned += 1;
                }
            }
        }
        let frac = poisoned as f32 / ctx.reference_ids.len().max(1) as f32;
        (ctx.reference, frac)
    }

    /// Pool the *clean* held-out data of an `eval_fraction` sample of all
    /// nodes (the paper validates "using the test datasets of a random
    /// selection of 10% of all nodes").
    fn eval_pool(&self, eval_seed: u64) -> Vec<&ClientData> {
        eval_pool_indices(
            self.cfg.seed,
            eval_seed,
            self.nodes.len(),
            self.cfg.eval_fraction,
        )
        .into_iter()
        .map(|i| &self.nodes[i].data)
        .collect()
    }

    /// Evaluate the consensus model.
    pub fn evaluate(&self, eval_seed: u64) -> EvalResult {
        let (reference, poisoned_frac) = self.reference_info();
        let clients = self.eval_pool(eval_seed);
        let (loss, accuracy) = fedavg::evaluate_params(&self.model, &reference, &clients);
        EvalResult {
            accuracy,
            loss,
            reference_poisoned_fraction: poisoned_frac,
        }
    }

    /// Backdoor attack-success rate: stamp the trigger onto every clean
    /// evaluation image whose true label differs from `target` and report
    /// the fraction the consensus model then classifies as `target`.
    /// Requires image data (`[N, C, H, W]`).
    pub fn backdoor_success(&self, target: u32, patch: usize, eval_seed: u64) -> f32 {
        let (reference, _) = self.reference_info();
        let clients = self.eval_pool(eval_seed);
        let model = self.model.with_params(reference.0);
        let mut total = 0usize;
        let mut hit = 0usize;
        for c in clients {
            if c.test_len() == 0 {
                continue;
            }
            let mut triggered = c.test_x.clone();
            feddata::poison::apply_trigger(&mut triggered, patch, 1.0);
            let preds = predictions(&model.predict(&triggered));
            for (p, &t) in preds.iter().zip(&c.test_y) {
                if t != target {
                    total += 1;
                    if *p == target {
                        hit += 1;
                    }
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            hit as f32 / total as f32
        }
    }

    /// Fig. 6b metric: among evaluation samples whose true label is `src`,
    /// the fraction the consensus model predicts as `dst`.
    pub fn target_misclassification(&self, src: u32, dst: u32, eval_seed: u64) -> f32 {
        let (reference, _) = self.reference_info();
        let clients = self.eval_pool(eval_seed);
        let model = self.model.with_params(reference.0);
        let mut total = 0usize;
        let mut hit = 0usize;
        for c in clients {
            if c.test_len() == 0 {
                continue;
            }
            let logits = model.predict(&c.test_x);
            let preds = predictions(&logits);
            for (p, &t) in preds.iter().zip(&c.test_y) {
                if t == src {
                    total += 1;
                    if *p == dst {
                        hit += 1;
                    }
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            hit as f32 / total as f32
        }
    }
}

/// Indices of the evaluation pool: an `eval_fraction` sample of `n`
/// nodes, shuffled by an RNG derived from `(seed, eval_seed)`. Factored
/// out of [`Simulation::evaluate`] so every executor (round,
/// gossip, networked daemon) draws the *same* pool and consensus
/// evaluations agree bit-for-bit.
pub fn eval_pool_indices(seed: u64, eval_seed: u64, n: usize, eval_fraction: f32) -> Vec<usize> {
    let mut rng = seeded(derive(seed, 0x5EED_0000 ^ eval_seed));
    let k = (((n as f32) * eval_fraction).round() as usize).clamp(1, n);
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        idx.swap(i, j);
    }
    idx.truncate(k);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::{assign_malicious, AttackKind};
    use crate::config::TangleHyperParams;
    use feddata::blobs::{self, BlobsConfig};
    use lt_telemetry::MemorySink;
    use tinynn::rng::seeded as tseed;

    fn dataset(users: usize) -> FederatedDataset {
        blobs::generate(
            &BlobsConfig {
                users,
                samples_per_user: (24, 36),
                noise_std: 0.6,
                ..BlobsConfig::default()
            },
            77,
        )
    }

    fn build() -> Sequential {
        tinynn::zoo::mlp(8, &[12], 4, &mut tseed(5))
    }

    fn quick_cfg() -> SimConfig {
        SimConfig {
            nodes_per_round: 5,
            lr: 0.15,
            batch_size: 8,
            eval_fraction: 0.5,
            seed: 3,
            hyper: TangleHyperParams::basic(),
            ..SimConfig::default()
        }
    }

    #[test]
    fn tangle_learning_converges_on_blobs() {
        let mut sim = Simulation::new(dataset(10), quick_cfg(), build);
        let acc0 = sim.evaluate(0).accuracy;
        for _ in 0..20 {
            sim.round();
        }
        let acc1 = sim.evaluate(0).accuracy;
        assert!(
            acc1 > acc0 + 0.2,
            "tangle learning should improve: {acc0} -> {acc1}"
        );
        assert!(sim.tangle().len() > 10, "transactions should be published");
    }

    /// One telemetry handle across two simulations, as a CLI command
    /// shares it between its arms: the second one's `Round` lines count
    /// its own tip draws, exactly as when it runs alone.
    #[test]
    fn walk_count_is_per_simulation() {
        fn rounds(tel: &Telemetry, sink: &MemorySink, seed: u64) -> Vec<Event> {
            let skip = sink.len();
            let cfg = SimConfig {
                seed,
                ..quick_cfg()
            };
            let mut sim = Simulation::new(dataset(8), cfg, build).with_telemetry(tel.clone());
            for _ in 0..3 {
                sim.round();
            }
            let events = sink.events().split_off(skip);
            events
                .into_iter()
                .filter(|e| matches!(e, Event::Round(_)))
                .collect()
        }
        let shared = Arc::new(MemorySink::new());
        let tel = Telemetry::new(shared.clone());
        rounds(&tel, &shared, 3);
        let after_another = rounds(&tel, &shared, 4);
        let alone_sink = Arc::new(MemorySink::new());
        let alone = rounds(&Telemetry::new(alone_sink.clone()), &alone_sink, 4);
        assert!(tel.counter_value("tangle.walks") > 0, "no tip drawn");
        assert_eq!(after_another, alone);
    }

    /// `Round.phase_us` under span timings, on the ideal network and
    /// under a `NetworkModel`: the keys each path has, and every nested
    /// part at most its parent. Checks no timing value. `evaluate` and
    /// `train` are busy time summed over threads, so no bound holds them.
    #[test]
    fn round_phases_nest_inside_their_parents() {
        let ideal = [
            "analysis",
            "analysis.reference",
            "analysis.refresh",
            "analysis.walk_table",
            "evaluate",
            "publish",
            "step",
            "train",
        ];
        let stale = [
            "analysis",
            "analysis.full",
            "analysis.walk_table",
            "evaluate",
            "publish",
            "step",
            "train",
        ];
        for (network, keys) in [(None, &ideal[..]), (Some(delayed(2)), &stale[..])] {
            let sink = Arc::new(MemorySink::new());
            let tel = Telemetry::with_timings(sink.clone(), true);
            let cfg = SimConfig {
                network,
                ..quick_cfg()
            };
            let mut sim = Simulation::new(dataset(8), cfg, build).with_telemetry(tel);
            for _ in 0..4 {
                sim.round();
            }
            let phases: Vec<_> = sink
                .events()
                .into_iter()
                .filter_map(|e| match e {
                    Event::Round(r) => r.phase_us,
                    _ => None,
                })
                .collect();
            assert_eq!(phases.len(), 4, "one phase map per round");
            for map in phases {
                assert_eq!(map.keys().map(String::as_str).collect::<Vec<_>>(), keys);
                let parts: u64 = map
                    .iter()
                    .filter(|(k, _)| k.starts_with("analysis."))
                    .map(|(_, us)| us)
                    .sum();
                assert!(
                    parts <= map["analysis"],
                    "analysis parts exceed it: {map:?}"
                );
            }
        }
    }

    #[test]
    fn round_stats_are_sane() {
        let mut sim = Simulation::new(dataset(8), quick_cfg(), build);
        let s = sim.round();
        assert_eq!(s.round, 1);
        assert_eq!(s.sampled, 5);
        assert!(s.published <= s.sampled);
        assert_eq!(s.malicious_published, 0);
        assert!(s.tips >= 1);
    }

    #[test]
    fn scripted_rounds_are_served_from_the_cache() {
        // One cached context per scripted round, never a rebuild — with a
        // node activated twice in one round, which is legal.
        let tel = Telemetry::new(lt_telemetry::NoopSink);
        let mut sim = Simulation::new(dataset(8), quick_cfg(), build).with_telemetry(tel.clone());
        let script: [&[usize]; 6] = [
            &[0, 1, 2, 3],
            &[4, 5, 6, 7],
            &[1, 3, 5],
            &[0, 2, 4, 6, 7],
            &[7, 0],
            &[2, 2, 5],
        ];
        for (r, idx) in script.iter().enumerate() {
            let s = sim.round_with_nodes(idx);
            assert_eq!((s.round, s.sampled), (r as u64 + 1, idx.len()));
        }
        assert_eq!(tel.counter_value("tangle.cache_hits"), 6);
        assert_eq!(tel.counter_value("tangle.cache_rebuilds"), 0);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn scripted_round_rejects_empty_activation() {
        let mut sim = Simulation::new(dataset(8), quick_cfg(), build);
        sim.round_with_nodes(&[]);
    }

    #[test]
    fn tip_count_stays_bounded() {
        // "the combination of averaging and training ensures that the number
        // of tips in the network remains constant given a fixed rate of
        // incoming updates" (§III-C).
        let mut sim = Simulation::new(dataset(12), quick_cfg(), build);
        for _ in 0..15 {
            sim.round();
        }
        assert!(
            sim.tangle().tip_count() <= 3 * sim.config().nodes_per_round,
            "tips exploded: {}",
            sim.tangle().tip_count()
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed: u64| {
            let mut cfg = quick_cfg();
            cfg.seed = seed;
            let mut sim = Simulation::new(dataset(8), cfg, build);
            for _ in 0..5 {
                sim.round();
            }
            (sim.tangle().len(), sim.evaluate(0).accuracy)
        };
        assert_eq!(run(9), run(9));
    }

    /// Full fingerprint of a short observed run: per-round stats, the
    /// ledger structure (issuer + parent indices per tx), the consensus
    /// accuracy, and the raw telemetry JSONL bytes.
    type RunFingerprint = (Vec<RoundStats>, Vec<(u64, Vec<u32>)>, f32, Vec<u8>);

    /// Issuer and parent indices of every transaction.
    fn structure(sim: &Simulation<'_>) -> Vec<(u64, Vec<u32>)> {
        sim.tangle()
            .transactions()
            .iter()
            .map(|tx| {
                (
                    tx.issuer,
                    tx.parents.iter().map(|p| p.index() as u32).collect(),
                )
            })
            .collect()
    }

    /// Close a run observed through the JSONL file at `path`.
    fn finish_fingerprint(
        sim: &Simulation<'_>,
        stats: Vec<RoundStats>,
        path: &std::path::Path,
    ) -> RunFingerprint {
        let accuracy = sim.evaluate(0).accuracy;
        let bytes = std::fs::read(path).expect("read jsonl");
        let _ = std::fs::remove_file(path);
        (stats, structure(sim), accuracy, bytes)
    }

    /// Oracle for the ideal-network round: the shared context comes from
    /// the full DPs over the ledger ([`RoundContext::from_dps`]), never from
    /// the [`AnalysisCache`]. Only node sampling, the step on an
    /// already-built context, and the publish barrier are shared with
    /// [`Simulation::round`].
    fn fresh_round(sim: &mut Simulation<'_>) -> RoundStats {
        sim.round += 1;
        let round = sim.round;
        let idx = sim.sample_nodes(round);
        let tel = sim.telemetry.clone();
        let mut phases = tel.phases();
        let ctx = phases.measure("analysis", |_| {
            RoundContext::from_dps(&sim.tangle, &sim.cfg, round, tel.clone())
        });
        let reference_entries = ctx.reference_entries();
        let outcomes = phases.measure("step", |_| {
            idx.par_iter()
                .map(|&ni| {
                    let mut node_rng = seeded(derive(sim.cfg.seed, (round << 24) ^ ni as u64));
                    sim.step_node(ni, &ctx, &mut node_rng)
                })
                .collect()
        });
        sim.publish_round(round, outcomes, reference_entries, &tel, phases)
    }

    /// Six observed rounds of the production path (analysis cache), or of
    /// the [`fresh_round`] oracle.
    fn fingerprint(cfg: SimConfig, oracle: bool, path: &std::path::Path) -> RunFingerprint {
        let sink = lt_telemetry::JsonlSink::create(path).expect("create jsonl");
        let mut sim = Simulation::new(dataset(10), cfg, build).with_telemetry(Telemetry::new(sink));
        let stats: Vec<RoundStats> = if oracle {
            (0..6).map(|_| fresh_round(&mut sim)).collect()
        } else {
            (0..6).map(|_| sim.round()).collect()
        };
        let tel = sim.telemetry();
        if oracle {
            assert_eq!(tel.counter_value("tangle.cache_hits"), 0);
            assert_eq!(tel.counter_value("tangle.cache_appends"), 0);
        } else {
            assert_eq!(
                tel.counter_value("tangle.cache_hits"),
                6,
                "every round context must be served from the cache"
            );
            assert_eq!(tel.counter_value("tangle.cache_rebuilds"), 0);
        }
        finish_fingerprint(&sim, stats, path)
    }

    fn assert_same_run(a: &RunFingerprint, b: &RunFingerprint) {
        assert_eq!(a.0, b.0, "RoundStats must match");
        assert_eq!(a.1, b.1, "ledger structure must match");
        assert_eq!(a.2.to_bits(), b.2.to_bits(), "accuracy must match");
        assert!(!a.3.is_empty(), "telemetry must produce output");
        assert_eq!(a.3, b.3, "telemetry JSONL must be byte-identical");
    }

    #[test]
    fn analysis_cache_matches_fresh_analysis() {
        // The cache must be a pure optimization: the same seed run through
        // the incremental cache and through the full DPs yields the same
        // rounds, ledger, accuracy, and telemetry bytes — only
        // `tangle.cache_*` metrics differ (they never reach the JSONL event
        // stream).
        let dir = std::env::temp_dir();
        let cached = fingerprint(quick_cfg(), false, &dir.join("lt_cache_on.jsonl"));
        let fresh = fingerprint(quick_cfg(), true, &dir.join("lt_cache_off.jsonl"));
        assert_same_run(&cached, &fresh);
    }

    /// Six observed rounds of `cfg` over a population that `setup` has
    /// shaped, with the per-node eval caches left to warm up, or (`cold`)
    /// emptied before every round so that nothing evaluated in one round
    /// is served in a later one. Also returns the hits served and the
    /// misses evaluated.
    fn fingerprint_eval(
        cfg: SimConfig,
        setup: fn(&mut [Node]),
        cold: bool,
        path: &std::path::Path,
    ) -> (RunFingerprint, u64, u64) {
        let sink = lt_telemetry::JsonlSink::create(path).expect("create jsonl");
        let mut sim = Simulation::new(dataset(10), cfg, build).with_telemetry(Telemetry::new(sink));
        setup(sim.nodes_mut());
        let stats: Vec<RoundStats> = (0..6)
            .map(|_| {
                if cold {
                    for cache in &sim.eval {
                        *cache.lock().unwrap_or_else(PoisonError::into_inner) =
                            EvalCache::default();
                    }
                }
                sim.round()
            })
            .collect();
        let tel = sim.telemetry();
        let (hits, misses) = (
            tel.counter_value("eval_cache.hits"),
            tel.counter_value("eval_cache.misses"),
        );
        (finish_fingerprint(&sim, stats, path), hits, misses)
    }

    /// A warm and a cold run of `cfg` must be the same run, and the warm
    /// one must actually have reused evaluations across rounds. Returns
    /// the warm run's hits and misses.
    fn assert_eval_cache_is_invisible(
        cfg: SimConfig,
        setup: fn(&mut [Node]),
        tag: &str,
    ) -> (u64, u64) {
        let dir = std::env::temp_dir();
        let (warm, warm_hits, warm_misses) = fingerprint_eval(
            cfg.clone(),
            setup,
            false,
            &dir.join(format!("lt_eval_warm_{tag}.jsonl")),
        );
        let (cold, cold_hits, _) = fingerprint_eval(
            cfg,
            setup,
            true,
            &dir.join(format!("lt_eval_cold_{tag}.jsonl")),
        );
        assert_same_run(&warm, &cold);
        assert!(
            warm_hits > cold_hits,
            "the warm run must serve hits across rounds ({warm_hits} vs {cold_hits})"
        );
        (warm_hits, warm_misses)
    }

    #[test]
    fn eval_cache_warm_and_cold_are_bit_identical() {
        // Memoized evaluation must be a pure optimization: evaluations are
        // pure in (params, data) and probes consume no randomness, so the
        // same seed yields the same rounds, ledger, accuracy, and telemetry
        // bytes whether or not a node finds its earlier evaluations — only
        // `eval_cache.*` metrics differ (they never reach the JSONL event
        // stream).
        let mut cfg = quick_cfg();
        cfg.hyper.tip_validation = true;
        cfg.hyper.sample_size = 6;
        assert_eval_cache_is_invisible(cfg, |_| {}, "v");
    }

    #[test]
    fn eval_cache_warm_and_cold_are_bit_identical_accuracy_bias() {
        // The accuracy-bias path evaluates every transaction per step —
        // the heaviest cached surface, so after a node's first activation
        // most of its probes must be served from its cache.
        let mut cfg = quick_cfg();
        cfg.hyper.tip_validation = true;
        cfg.hyper.accuracy_bias = 0.5;
        let (hits, misses) = assert_eval_cache_is_invisible(cfg, |_| {}, "b");
        assert!(
            hits > misses,
            "the accuracy-bias run must mostly hit ({hits} hits, {misses} misses)"
        );
    }

    #[test]
    fn eval_cache_warm_and_cold_are_bit_identical_delayed_network() {
        // Delayed-network mode runs nodes on zero-copy `TangleView`
        // prefixes of the one ledger, so a transaction id means the same
        // transaction under every view and entries written under a stale
        // view serve under fresher ones — without ever changing results.
        let mut cfg = quick_cfg();
        cfg.hyper.tip_validation = true;
        cfg.network = Some(delayed(3));
        assert_eval_cache_is_invisible(cfg, |_| {}, "d");
    }

    #[test]
    fn eval_cache_warm_and_cold_are_bit_identical_label_flipper() {
        // A label flipper scores candidates on its clean data until round
        // 3 and on its poisoned data after: the data tag must keep the two
        // apart, or the warm flipper would rank tips by clean losses.
        let mut cfg = quick_cfg();
        cfg.hyper.tip_validation = true;
        cfg.hyper.sample_size = 6;
        assert_eval_cache_is_invisible(
            cfg,
            |nodes| {
                // Sampled in rounds 1, 2, 3 and 6: clean, then poisoned.
                let node = &mut nodes[3];
                node.poisoned_data = crate::attack::default_flip_source(0, 1)(node);
                node.kind = crate::NodeKind::LabelFlipper {
                    from_round: 3,
                    src: 0,
                    dst: 1,
                };
            },
            "f",
        );
    }

    fn delayed(max_delay_rounds: u64) -> crate::config::NetworkModel {
        crate::config::NetworkModel {
            max_delay_rounds,
            publish_loss: 0.0,
        }
    }

    /// Oracle for the delayed-network round, as it ran before prefix
    /// analyses were shared: every node clones its own prefix of the
    /// ledger (`round_end_len[r]` = ledger size at the end of round `r`)
    /// and runs the full analysis on it. Only node sampling, the step on
    /// an already-built context, and the publish barrier are shared with
    /// [`Simulation::round`].
    fn per_node_round(sim: &mut Simulation<'_>, round_end_len: &mut Vec<usize>) -> RoundStats {
        sim.round += 1;
        let round = sim.round;
        let idx = sim.sample_nodes(round);
        let net = sim.cfg.network.expect("the oracle is the delayed path");
        let tel = sim.telemetry.clone();
        let mut phases = tel.phases();
        let outcomes = phases.measure("step", |_| {
            idx.par_iter()
                .map(|&ni| {
                    let mut node_rng = seeded(derive(sim.cfg.seed, (round << 24) ^ ni as u64));
                    let delay = node_rng.random_range(0..=net.max_delay_rounds);
                    let view_round = (round - 1).saturating_sub(delay) as usize;
                    let stale = sim.tangle.prefix(round_end_len[view_round]);
                    let ctx = RoundContext::from_dps(&stale, &sim.cfg, round, tel.clone());
                    sim.step_node(ni, &ctx, &mut node_rng)
                })
                .collect()
        });
        let stats = sim.publish_round(round, outcomes, Vec::new(), &tel, phases);
        round_end_len.push(sim.tangle.len());
        stats
    }

    /// `rounds` rounds of the production path, or of the oracle over a
    /// ledger history that so far reads `round_end_len`.
    fn run_delayed(
        sim: &mut Simulation<'_>,
        rounds: usize,
        oracle: Option<Vec<usize>>,
    ) -> Vec<RoundStats> {
        match oracle {
            None => (0..rounds).map(|_| sim.round()).collect(),
            Some(mut round_end_len) => (0..rounds)
                .map(|_| per_node_round(sim, &mut round_end_len))
                .collect(),
        }
    }

    /// Like [`fingerprint`] under a `NetworkModel`, run either by the
    /// production path (shared prefix analyses) or by [`per_node_round`].
    fn fingerprint_delayed(cfg: SimConfig, oracle: bool, path: &std::path::Path) -> RunFingerprint {
        let sink = lt_telemetry::JsonlSink::create(path).expect("create jsonl");
        let mut sim = Simulation::new(dataset(10), cfg, build).with_telemetry(Telemetry::new(sink));
        let stats = run_delayed(&mut sim, 8, oracle.then(|| vec![1]));
        finish_fingerprint(&sim, stats, path)
    }

    #[test]
    fn delayed_shared_analysis_matches_per_node_analysis() {
        // One analysis per round-end prefix, shared by every node viewing
        // that prefix, must be indistinguishable from each node analysing
        // its own view: same rounds, ledger, accuracy bits, and telemetry
        // bytes — with no delay, with delays shorter and longer than the
        // run's first rounds, and with the shared depths in play.
        let dir = std::env::temp_dir();
        for (tag, max_delay, window) in [
            ("d0", 0, None),
            ("d2", 2, None),
            ("d5", 5, None),
            ("d2w", 2, Some(3)),
        ] {
            let mut cfg = quick_cfg();
            cfg.hyper.tip_validation = true;
            cfg.hyper.sample_size = 6;
            cfg.hyper.window = window;
            cfg.network = Some(delayed(max_delay));
            let shared = fingerprint_delayed(
                cfg.clone(),
                false,
                &dir.join(format!("lt_delayed_shared_{tag}.jsonl")),
            );
            let oracle = fingerprint_delayed(
                cfg,
                true,
                &dir.join(format!("lt_delayed_oracle_{tag}.jsonl")),
            );
            assert_eq!(shared.0, oracle.0, "{tag}: RoundStats must match");
            assert_eq!(shared.1, oracle.1, "{tag}: ledger structure must match");
            assert_eq!(
                shared.2.to_bits(),
                oracle.2.to_bits(),
                "{tag}: accuracy must match"
            );
            assert!(shared.1.len() > 8, "{tag}: the run must publish");
            assert!(!shared.3.is_empty(), "{tag}: telemetry must produce output");
            assert_eq!(shared.3, oracle.3, "{tag}: telemetry JSONL must match");
        }
    }

    /// `(analysis spans, walk-table spans, cache appends, tip draws)` of a
    /// delayed run with span timings on.
    fn delayed_counters(sim: &Simulation<'_>) -> (u64, u64, u64, u64) {
        let tel = sim.telemetry();
        (
            tel.histogram_totals("tangle.analysis_us").0,
            tel.histogram_totals("tangle.confidence_us").0,
            tel.counter_value("tangle.cache_appends"),
            tel.counter_value("tangle.walks"),
        )
    }

    #[test]
    fn delayed_rounds_analyse_once_and_keep_a_bounded_ring() {
        let mut cfg = quick_cfg();
        cfg.network = Some(delayed(2));
        let rounds = 7u64;
        let observed = || {
            let tel = Telemetry::with_timings(lt_telemetry::NoopSink, true);
            Simulation::new(dataset(10), cfg.clone(), build).with_telemetry(tel)
        };
        let (spans, tables, appends, walks) = {
            let mut sim = observed();
            assert_eq!(
                sim.cache.len(),
                1,
                "no round refreshes the cache under a NetworkModel"
            );
            for r in 1..=rounds {
                let seen = sim.tangle().len();
                sim.round();
                // Rounds 1..=2 reach back to the genesis; from round 3 on
                // the ring is full and stays at `max_delay_rounds + 1`.
                assert_eq!(sim.prefixes.len() as u64, r.min(3));
                // The newest entry is the ledger the round started on.
                let newest = sim.prefixes.back().expect("one entry per round");
                assert_eq!(newest.len, seen);
                assert_eq!(newest.analysis.rating.len(), seen);
                assert_eq!(newest.walk.confidence().len(), seen);
            }
            delayed_counters(&sim)
        };
        let nodes = cfg.nodes_per_round as u64;
        assert_eq!(spans, rounds, "one full analysis per round");
        assert_eq!(
            tables, spans,
            "one walk table, with its confidence, per analysis"
        );
        assert_eq!(appends, 0, "stale views never touch the incremental cache");
        // The per-node path ran one analysis and one walk table per
        // node-step; everything downstream of them is untouched.
        let mut sim = observed();
        run_delayed(&mut sim, rounds as usize, Some(vec![1]));
        let parent = delayed_counters(&sim);
        assert_eq!((parent.0, parent.1), (rounds * nodes, rounds * nodes));
        assert_eq!((appends, walks), (parent.2, parent.3));
    }

    #[test]
    fn delayed_resume_finds_the_synthetic_round() {
        // A resumed ledger is one synthetic round on top of the genesis:
        // in the first resumed round a delayed node sees either all of it
        // or the genesis alone, and both prefixes must be analysed.
        let mut sim = Simulation::new(dataset(10), quick_cfg(), build);
        for _ in 0..4 {
            sim.round();
        }
        let bytes = crate::persist::to_bytes(sim.tangle());
        let resume = |max_delay: u64, oracle: bool| {
            let mut cfg = quick_cfg();
            cfg.network = Some(delayed(max_delay));
            let restored = crate::persist::from_bytes(&bytes).unwrap();
            let restored_len = restored.len();
            let mut sim = Simulation::resume(dataset(10), cfg, build, restored);
            let stats = run_delayed(&mut sim, 4, oracle.then(|| vec![1, restored_len]));
            assert_eq!(
                sim.cache.len(),
                restored_len,
                "no round refreshes the cache"
            );
            assert!(sim.prefixes.len() as u64 <= max_delay + 1);
            assert!(sim.tangle().len() > restored_len, "resume must publish");
            (stats, structure(&sim), sim.evaluate(0).accuracy.to_bits())
        };
        for max_delay in [0, 1, 3] {
            assert_eq!(resume(max_delay, false), resume(max_delay, true));
        }
    }

    #[test]
    fn evaluate_from_the_cache_matches_the_batch_analysis() {
        // `evaluate` serves weights and ratings from a caught-up copy of
        // the analysis cache, on the ideal network and under a
        // `NetworkModel` (whose rounds never refresh the cache); it must
        // agree bit-for-bit with Algorithm 1 over the batch DPs, leave the
        // cache itself alone, and stay unobserved.
        for network in [None, Some(delayed(2))] {
            evaluate_matches_the_batch_analysis(network);
        }
    }

    fn evaluate_matches_the_batch_analysis(network: Option<crate::config::NetworkModel>) {
        let mut cfg = quick_cfg();
        cfg.hyper.window = Some(3);
        cfg.hyper.reference_avg = 3;
        cfg.network = network;
        let tel = Telemetry::with_timings(lt_telemetry::NoopSink, true);
        let mut sim = Simulation::new(dataset(10), cfg.clone(), build).with_telemetry(tel);
        for _ in 0..5 {
            sim.round();
            let before = sim.telemetry().metrics_snapshot();
            let cached_len = sim.cache.len();
            let eval = sim.evaluate(0);
            let params = sim.consensus_params();
            assert_eq!(sim.cache.len(), cached_len);
            assert_eq!(sim.telemetry().metrics_snapshot(), before);
            let round = sim.round + 1;
            let batch = RoundContext::from_dps(sim.tangle(), &cfg, round, Telemetry::disabled());
            let bits =
                |p: &ParamVec| -> Vec<u32> { p.as_slice().iter().map(|v| v.to_bits()).collect() };
            assert_eq!(bits(&params), bits(&batch.reference));
            let (loss, accuracy) =
                fedavg::evaluate_params(&build(), &batch.reference, &sim.eval_pool(0));
            assert_eq!(
                (eval.loss.to_bits(), eval.accuracy.to_bits()),
                (loss.to_bits(), accuracy.to_bits())
            );
        }
    }

    #[test]
    fn analysis_cache_matches_fresh_analysis_windowed() {
        // Windowed tip selection additionally consumes the cached depths.
        let mut cfg = quick_cfg();
        cfg.hyper.window = Some(3);
        let dir = std::env::temp_dir();
        let cached = fingerprint(cfg.clone(), false, &dir.join("lt_cache_on_w.jsonl"));
        let fresh = fingerprint(cfg, true, &dir.join("lt_cache_off_w.jsonl"));
        assert_same_run(&cached, &fresh);
    }

    #[test]
    fn random_poisoners_get_flagged_in_stats() {
        let mut sim = Simulation::new(dataset(10), quick_cfg(), build);
        assign_malicious(sim.nodes_mut(), 0.5, 0, AttackKind::RandomNoise, 1, |_| {
            None
        });
        let mut saw_malicious = false;
        for _ in 0..5 {
            if sim.round().malicious_published > 0 {
                saw_malicious = true;
            }
        }
        assert!(saw_malicious, "poisoners publish every time they are drawn");
    }

    #[test]
    fn dp_noise_does_not_break_learning() {
        let mut sim = Simulation::new(dataset(10), quick_cfg(), build).with_dp(DpConfig {
            clip_norm: 5.0,
            sigma: 0.001,
        });
        for _ in 0..10 {
            sim.round();
        }
        let acc = sim.evaluate(0).accuracy;
        assert!(
            acc > 0.3,
            "mild DP noise should still allow learning: {acc}"
        );
    }

    #[test]
    fn save_and_resume_continues_training() {
        let mut sim = Simulation::new(dataset(10), quick_cfg(), build);
        for _ in 0..10 {
            sim.round();
        }
        let acc_before = sim.evaluate(0).accuracy;
        let bytes = crate::persist::to_bytes(sim.tangle());
        drop(sim);
        // Restart from the persisted ledger with fresh node state.
        let restored = crate::persist::from_bytes(&bytes).unwrap();
        let mut resumed = Simulation::resume(dataset(10), quick_cfg(), build, restored);
        let acc_restored = resumed.evaluate(0).accuracy;
        assert!(
            (acc_before - acc_restored).abs() < 0.25,
            "restored consensus should be in the same quality band: {acc_before} vs {acc_restored}"
        );
        let len_before = resumed.tangle().len();
        for _ in 0..5 {
            resumed.round();
        }
        assert!(
            resumed.tangle().len() > len_before,
            "resume must keep publishing"
        );
        let acc_after = resumed.evaluate(0).accuracy;
        assert!(
            acc_after > acc_restored - 0.2,
            "continued training must not collapse: {acc_restored} -> {acc_after}"
        );
    }

    #[test]
    #[should_panic(expected = "does not match the model architecture")]
    fn resume_rejects_mismatched_architecture() {
        let mut sim = Simulation::new(dataset(6), quick_cfg(), build);
        sim.round();
        let bytes = crate::persist::to_bytes(sim.tangle());
        let restored = crate::persist::from_bytes(&bytes).unwrap();
        let wrong = || tinynn::zoo::mlp(8, &[5], 4, &mut tseed(5));
        let _ = Simulation::resume(dataset(6), quick_cfg(), wrong, restored);
    }

    #[test]
    fn windowed_tip_selection_converges() {
        let mut cfg = quick_cfg();
        cfg.hyper.window = Some(3);
        let mut sim = Simulation::new(dataset(10), cfg, build);
        let acc0 = sim.evaluate(0).accuracy;
        for _ in 0..15 {
            sim.round();
        }
        let acc1 = sim.evaluate(0).accuracy;
        assert!(
            acc1 > acc0 + 0.15,
            "windowed walks should still learn: {acc0} -> {acc1}"
        );
        assert!(sim.tangle().len() > 10);
    }

    #[test]
    fn lossy_network_still_converges() {
        let mut cfg = quick_cfg();
        cfg.network = Some(crate::config::NetworkModel {
            max_delay_rounds: 3,
            publish_loss: 0.2,
        });
        let mut sim = Simulation::new(dataset(10), cfg, build);
        let acc0 = sim.evaluate(0).accuracy;
        for _ in 0..20 {
            sim.round();
        }
        let acc1 = sim.evaluate(0).accuracy;
        assert!(
            acc1 > acc0 + 0.15,
            "learning should survive delay + 20% loss: {acc0} -> {acc1}"
        );
        assert!(sim.lost_publications() > 0, "losses should be recorded");
    }

    #[test]
    fn total_publish_loss_freezes_ledger() {
        let mut cfg = quick_cfg();
        cfg.network = Some(crate::config::NetworkModel {
            max_delay_rounds: 0,
            publish_loss: 1.0,
        });
        let mut sim = Simulation::new(dataset(8), cfg, build);
        for _ in 0..5 {
            sim.round();
        }
        assert_eq!(sim.tangle().len(), 1, "every publication must be lost");
        assert!(sim.lost_publications() >= 5);
    }

    #[test]
    fn delayed_views_are_historical_prefixes() {
        // With a large delay every node still acts on *some* valid prefix;
        // the published parents must therefore exist and the run stays
        // deterministic.
        let mut cfg = quick_cfg();
        cfg.network = Some(crate::config::NetworkModel {
            max_delay_rounds: 5,
            publish_loss: 0.0,
        });
        let run = |seed: u64| {
            let mut c = cfg.clone();
            c.seed = seed;
            let mut sim = Simulation::new(dataset(8), c, build);
            for _ in 0..8 {
                sim.round();
            }
            sim.tangle().len()
        };
        assert_eq!(run(4), run(4));
    }

    #[test]
    fn target_misclassification_zero_for_untargeted_model() {
        let mut sim = Simulation::new(dataset(10), quick_cfg(), build);
        for _ in 0..10 {
            sim.round();
        }
        // A benign, reasonably accurate model should rarely map 0 -> 1.
        let mis = sim.target_misclassification(0, 1, 0);
        assert!(mis < 0.6, "benign misclassification too high: {mis}");
    }
}
