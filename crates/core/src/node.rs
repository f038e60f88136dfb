//! The per-node algorithm: reference selection (Algorithm 1), tip
//! selection with optional local validation (§III-E), local training, and
//! the publish gate (Algorithm 2).

use crate::config::SimConfig;
use crate::eval_cache::EvalCache;
use fedavg::local_train;
use feddata::ClientData;
use lt_telemetry::PhaseRecorder;
use rand::RngExt;
use rand_distr::{Distribution, Normal};
use std::sync::Arc;
use tangle_ledger::walk::{RandomWalk, WalkTable};
use tangle_ledger::{AnalysisCache, Tangle, TangleAnalysis, TangleRead, TxId};
use tinynn::{ParamVec, Sequential};

/// Payload carried by learning-tangle transactions: a shared, immutable
/// full set of model parameters.
pub type ModelParams = Arc<ParamVec>;

/// What a node *is* — honest, or one of the paper's two adversaries,
/// activated from a given round ("after 200 rounds of benign training, the
/// adversarial nodes generate poisoning transactions").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// Always follows Algorithm 2 faithfully.
    Honest,
    /// From `from_round` on, publishes standard-normal random parameters
    /// every time it is selected (indiscriminate attack, Fig. 5).
    RandomPoisoner {
        /// First round of malicious behaviour.
        from_round: u64,
    },
    /// From `from_round` on, trains on a dataset consisting entirely of
    /// `src`-class samples labelled `dst` (targeted attack, Fig. 6).
    LabelFlipper {
        /// First round of malicious behaviour.
        from_round: u64,
        /// True class of the poisoned samples.
        src: u32,
        /// Label the attacker assigns to them.
        dst: u32,
    },
    /// From `from_round` on, trains on its own data *plus* trigger-stamped
    /// copies labelled `target` — a backdoor attack (the "different
    /// classes of poisoning attacks" the paper's outlook asks for,
    /// following its reference \[29\]).
    Backdoor {
        /// First round of malicious behaviour.
        from_round: u64,
        /// Class the trigger should activate.
        target: u32,
    },
}

/// Behaviour a node exhibits in a particular round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Behaviour {
    /// Algorithm 2 on clean local data.
    Honest,
    /// Publish random noise.
    RandomNoise,
    /// Algorithm 2 on the flipped dataset.
    FlippedTraining,
}

/// A network participant: private local data plus a behaviour kind.
pub struct Node {
    /// Stable node id (also recorded as transaction issuer).
    pub id: usize,
    /// The node's clean local dataset.
    pub data: ClientData,
    /// Replacement dataset used once a [`NodeKind::LabelFlipper`] activates.
    pub poisoned_data: Option<ClientData>,
    /// The node's kind.
    pub kind: NodeKind,
}

impl Node {
    /// An honest node over `data`.
    pub fn honest(id: usize, data: ClientData) -> Self {
        Self {
            id,
            data,
            poisoned_data: None,
            kind: NodeKind::Honest,
        }
    }

    /// Which behaviour the node exhibits in `round`.
    pub fn behaviour(&self, round: u64) -> Behaviour {
        match self.kind {
            NodeKind::Honest => Behaviour::Honest,
            NodeKind::RandomPoisoner { from_round } => {
                if round >= from_round {
                    Behaviour::RandomNoise
                } else {
                    Behaviour::Honest
                }
            }
            NodeKind::LabelFlipper { from_round, .. } | NodeKind::Backdoor { from_round, .. } => {
                if round >= from_round {
                    Behaviour::FlippedTraining
                } else {
                    Behaviour::Honest
                }
            }
        }
    }

    /// Is the node behaving maliciously in `round`?
    pub fn is_malicious(&self, round: u64) -> bool {
        self.behaviour(round) != Behaviour::Honest
    }
}

/// Everything a node acts on within one round: the tangle snapshot
/// analysis, the walk over it (confidence and tip draws), and the
/// consensus reference model.
///
/// The paper's training is round-based, with "published transactions from a
/// given round ... only visible to the nodes participating in the next
/// round" — so on an ideal network one context serves all nodes of a
/// round, built by [`Self::build_with_cache`] from the analysis cache
/// that follows the ledger. Under a [`crate::config::NetworkModel`] every
/// node gets a context of its own (own view, own tip draws) built by
/// [`Self::from_analysis`] over the *shared* analysis of its prefix: the
/// weight/rating tables and the walk table with its confidence are a pure
/// function of the prefix, so they are held by `Arc` and never copied or
/// recomputed per node.
pub struct RoundContext<'a, T: TangleRead<Payload = ModelParams> = Tangle<ModelParams>> {
    /// The tangle as of the start of the round — either the full ledger or
    /// a zero-copy [`tangle_ledger::TangleView`] prefix of it (the
    /// delayed-network path).
    pub tangle: &'a T,
    /// Cumulative weights and ratings of the snapshot (shared, see the
    /// type docs).
    pub analysis: Arc<TangleAnalysis>,
    /// The top `reference_avg` transactions by `confidence × rating`.
    pub reference_ids: Vec<TxId>,
    /// Their averaged parameters — the current consensus model.
    pub reference: ParamVec,
    /// The round being played.
    pub round: u64,
    /// The snapshot's walk table under `hyper.alpha` (shared like
    /// `analysis`): it holds every transaction's exact confidence
    /// ([`WalkTable::confidence`]), and every tip is drawn from its exit
    /// distribution. With `hyper.window` set that distribution starts on
    /// the window's entry particles; the confidence always starts on the
    /// genesis.
    pub walk: Arc<WalkTable>,
    /// Observability handle shared by every node this round (disabled by
    /// default, see [`lt_telemetry::Telemetry`]).
    pub telemetry: lt_telemetry::Telemetry,
}

impl<'a, T: TangleRead<Payload = ModelParams> + Sync> RoundContext<'a, T> {
    /// Build the context for `round` over `tangle` (Algorithm 1 happens
    /// here), threading `telemetry` through the analysis, the walk table
    /// and all later tip selection. Weights, ratings and depths come from
    /// `cache`, refreshed against `tangle` first (incremental catch-up, or
    /// a counted rebuild when it follows another history — see
    /// [`AnalysisCache::refresh_observed`]); they equal the batch DPs bit
    /// for bit. A caller that must leave its cache where it is (an
    /// evaluation between rounds) passes a clone. `phases` times the
    /// three parts: `refresh`, `walk_table` and `reference` (choosing and
    /// averaging the reference set, [`Self::from_analysis`]).
    pub fn build_with_cache(
        tangle: &'a T,
        cache: &mut AnalysisCache,
        cfg: &SimConfig,
        round: u64,
        telemetry: lt_telemetry::Telemetry,
        phases: &mut PhaseRecorder<'_>,
    ) -> Self {
        phases.measure("refresh", |_| cache.refresh_observed(tangle, &telemetry));
        let analysis = Arc::new(cache.analysis());
        let walk = phases.measure("walk_table", |_| {
            walk_table(tangle, &analysis, cache.depths(), &cfg.hyper, &telemetry)
        });
        phases.measure("reference", |_| {
            Self::from_analysis(tangle, analysis, walk, cfg, round, telemetry)
        })
    }

    /// Algorithm 1 over an already-computed analysis of `tangle`: reference
    /// selection by the walk table's confidence, and reference-model
    /// averaging. `analysis` and `walk` (the [`RandomWalk::table`] of
    /// `cfg.hyper.alpha`, or the [`RandomWalk::windowed_table`] when
    /// `cfg.hyper.window` is set) must describe exactly `tangle`; callers
    /// that analyse a snapshot once and hand it to many contexts (the
    /// delayed-network round) clone the `Arc`s, not the tables.
    ///
    /// # Panics
    /// Panics if `analysis` or `walk` covers a different number of
    /// transactions than `tangle`, or if `walk` is a windowed table and
    /// `cfg.hyper.window` is unset or the reverse.
    pub fn from_analysis(
        tangle: &'a T,
        analysis: Arc<TangleAnalysis>,
        walk: Arc<WalkTable>,
        cfg: &SimConfig,
        round: u64,
        telemetry: lt_telemetry::Telemetry,
    ) -> Self {
        assert_eq!(
            (analysis.rating.len(), walk.confidence().len()),
            (tangle.len(), tangle.len()),
            "analysis or walk table of another snapshot"
        );
        assert_eq!(
            walk.is_windowed(),
            cfg.hyper.window.is_some(),
            "the walk table must be windowed exactly when tip selection is"
        );
        let reference_ids =
            analysis.choose_reference(walk.confidence(), cfg.hyper.reference_avg.max(1));
        let payloads: Vec<&ParamVec> = reference_ids
            .iter()
            .map(|id| tangle.get(*id).payload.as_ref())
            .collect();
        let reference = ParamVec::average(&payloads);
        Self {
            tangle,
            analysis,
            reference_ids,
            reference,
            round,
            walk,
            telemetry,
        }
    }

    /// The reference set as a `Round` telemetry event reports it.
    pub(crate) fn reference_entries(&self) -> Vec<lt_telemetry::ReferenceEntry> {
        self.reference_ids
            .iter()
            .map(|id| lt_telemetry::ReferenceEntry {
                tx: id.index() as u32,
                confidence: self.walk.confidence()[id.index()],
                rating: self.analysis.rating[id.index()],
            })
            .collect()
    }

    /// Draw `k` tips, one after another on `rng`, from the exit
    /// distribution of `table` ([`WalkTable::draw_tip`]), counted as tip
    /// draws: the context's [`Self::walk`] — the walk from the genesis, or
    /// from a depth-window particle when windowed selection is configured
    /// (§IV) — or a node step's accuracy-biased table.
    pub fn sample_tips(&self, table: &WalkTable, k: usize, rng: &mut dyn rand::Rng) -> Vec<TxId> {
        self.telemetry.count("tangle.walks", k as u64);
        (0..k)
            .map(|_| {
                let _span = self.telemetry.span("tangle.tip_selection_us");
                table.draw_tip(rng)
            })
            .collect()
    }
}

/// The walk table of a context over `tangle`, timed as
/// `tangle.confidence_us`: the weighted walk under `hyper.alpha`, entered
/// through the window of `depths` when `hyper.window` is set. Its build
/// computes every transaction's confidence and the tips' exit mass. Built
/// once per analysed snapshot.
///
/// # Panics
/// Panics if `analysis` or `depths` do not describe `tangle`.
pub(crate) fn walk_table<T: TangleRead>(
    tangle: &T,
    analysis: &TangleAnalysis,
    depths: &[u32],
    hyper: &crate::config::TangleHyperParams,
    telemetry: &lt_telemetry::Telemetry,
) -> Arc<WalkTable> {
    let _span = telemetry.span("tangle.confidence_us");
    let (walk, weights) = (RandomWalk::new(hyper.alpha), &analysis.cumulative_weight);
    Arc::new(match hyper.window {
        Some(w) => walk.windowed_table(tangle, weights, depths, w),
        None => walk.table(tangle, weights),
    })
}

/// A transaction a node wants to publish at the end of the round.
#[derive(Clone, Debug)]
pub struct Publish {
    /// Issuing node id.
    pub node: usize,
    /// New model parameters.
    pub params: ParamVec,
    /// The approved parent tips.
    pub parents: Vec<TxId>,
}

/// Per-node outcome of one round, for statistics.
#[derive(Clone, Debug)]
pub struct StepOutcome {
    /// The publish request, if the node's gate passed.
    pub publish: Option<Publish>,
    /// Local validation loss of the freshly trained model (None for the
    /// random poisoner, which does not train).
    pub new_loss: Option<f32>,
    /// Local validation loss of the reference model.
    pub reference_loss: Option<f32>,
}

/// The span that times a node step's model evaluations, per batch of
/// them: the reference, the candidate tips (cache hits included) and the
/// freshly trained model.
pub(crate) const EVALUATE_SPAN: &str = "node.evaluate_us";

/// The span that times a node step's local training.
pub(crate) const TRAIN_SPAN: &str = "node.local_train_us";

/// Evaluate `params` in place under `model`'s architecture on a client's
/// held-out data, returning `(loss, accuracy)`.
fn eval_params(model: &Sequential, params: &ParamVec, data: &ClientData) -> (f32, f32) {
    model.evaluate_params(params.as_slice(), &data.test_x, &data.test_y)
}

/// Execute one node-round (the paper's Algorithm 2, §III-E variant when
/// `tip_validation` is on).
///
/// `model` is the shared architecture: every candidate is evaluated in
/// place from its ledger payload, and training runs on a copy carrying the
/// averaged parents. `rng` drives this node's walks and batch shuffles;
/// `cache` memoizes this node's candidate evaluations and must index the
/// same ledger as `ctx` (ids are positions in it). The cache only changes
/// what is *recomputed*, never what is computed: evaluations are pure in
/// the parameters and the node's data, and cache probes consume no
/// randomness.
pub fn node_step<T: TangleRead<Payload = ModelParams> + Sync>(
    node: &Node,
    ctx: &RoundContext<'_, T>,
    model: &Sequential,
    cfg: &SimConfig,
    rng: &mut impl RngExt,
    cache: &mut EvalCache,
) -> StepOutcome {
    match node.behaviour(ctx.round) {
        Behaviour::RandomNoise => random_poison_step(node, ctx, cfg, rng),
        Behaviour::Honest => honest_step(node, &node.data, 0, ctx, model, cfg, rng, cache),
        Behaviour::FlippedTraining => {
            let data = node
                .poisoned_data
                .as_ref()
                .expect("data poisoner constructed with poisoned data");
            honest_step(node, data, 1, ctx, model, cfg, rng, cache)
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn honest_step<T: TangleRead<Payload = ModelParams> + Sync>(
    node: &Node,
    data: &ClientData,
    data_tag: u64,
    ctx: &RoundContext<'_, T>,
    model: &Sequential,
    cfg: &SimConfig,
    rng: &mut impl RngExt,
    cache: &mut EvalCache,
) -> StepOutcome {
    let hyper = &cfg.hyper;

    // Reference loss, evaluated afresh: the ranked reference set rarely
    // repeats, so it is not memoized (but counted as an evaluation run).
    ctx.telemetry.count("eval_cache.misses", 1);
    let (reference_loss, _) = {
        let _span = ctx.telemetry.span(EVALUATE_SPAN);
        eval_params(model, &ctx.reference, data)
    };
    let eval_tx = |id: TxId| eval_params(model, &ctx.tangle.get(id).payload, data);

    // Tip selection: `sample_size` draws; with validation on, keep the
    // locally best `num_tips` distinct candidates, else the first draws.
    // With `accuracy_bias` enabled (§VI outlook) the walk is additionally
    // biased by each model's accuracy on this node's local data: that bias
    // belongs to this step alone, so the step builds its own table of it
    // (from the genesis also under a window) and draws from that.
    let biased: Option<WalkTable> = (hyper.accuracy_bias > 0.0).then(|| {
        let all: Vec<TxId> = (0..ctx.tangle.len() as u32).map(TxId).collect();
        let bias: Vec<f64> = {
            let _span = ctx.telemetry.span(EVALUATE_SPAN);
            cache.evaluate(&all, data_tag, eval_tx, &ctx.telemetry)
        }
        .into_iter()
        .map(|(_, acc)| hyper.accuracy_bias * acc as f64)
        .collect();
        RandomWalk::new(hyper.alpha).biased_table(
            ctx.tangle,
            &ctx.analysis.cumulative_weight,
            &bias,
        )
    });
    let table = biased.as_ref().unwrap_or(&ctx.walk);
    let samples = ctx.sample_tips(table, hyper.sample_size.max(hyper.num_tips), rng);
    let parents: Vec<TxId> = if hyper.tip_validation {
        let mut distinct = samples.clone();
        distinct.sort_unstable();
        distinct.dedup();
        // Scored in `distinct` order, so the stable sort breaks loss ties
        // towards the lower transaction id.
        let mut scored: Vec<(f32, TxId)> = {
            let _span = ctx.telemetry.span(EVALUATE_SPAN);
            cache.evaluate(&distinct, data_tag, eval_tx, &ctx.telemetry)
        }
        .into_iter()
        .zip(distinct)
        .map(|((loss, _), tip)| (loss, tip))
        .collect();
        scored.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite losses"));
        scored
            .into_iter()
            .take(hyper.num_tips.max(1))
            .map(|(_, t)| t)
            .collect()
    } else {
        samples.into_iter().take(hyper.num_tips.max(1)).collect()
    };

    // Average the parent models — duplicates count twice, matching the
    // paper's w_avg = ½w₁ + ½w₂ for possibly-identical tips.
    let payloads: Vec<&ParamVec> = parents
        .iter()
        .map(|id| ctx.tangle.get(*id).payload.as_ref())
        .collect();
    let avg = ParamVec::average(&payloads);

    // Train locally from the averaged base, on a model sharing the layers.
    let mut trained = model.with_params(avg.0);
    {
        let _span = ctx.telemetry.span(TRAIN_SPAN);
        local_train(
            &mut trained,
            data,
            cfg.local_epochs,
            cfg.lr,
            cfg.batch_size,
            rng,
        );
    }
    let (new_loss, _) = {
        let _span = ctx.telemetry.span(EVALUATE_SPAN);
        trained.evaluate(&data.test_x, &data.test_y)
    };
    let new_params = ParamVec(trained.into_params());

    // Publish gate: only emit if we beat the consensus reference locally.
    let publish = (new_loss < reference_loss).then_some(Publish {
        node: node.id,
        params: new_params,
        parents,
    });
    StepOutcome {
        publish,
        new_loss: Some(new_loss),
        reference_loss: Some(reference_loss),
    }
}

fn random_poison_step<T: TangleRead<Payload = ModelParams> + Sync>(
    node: &Node,
    ctx: &RoundContext<'_, T>,
    cfg: &SimConfig,
    rng: &mut impl RngExt,
) -> StepOutcome {
    // "adversarial nodes simply submit model parameters generated by a
    // standard normal distribution" (Fig. 5). Parents are drawn like an
    // honest node's tips so the junk attaches where honest traffic attaches.
    let normal = Normal::new(0.0f32, 1.0).expect("valid normal");
    let dim = ctx.reference.len();
    let params = ParamVec((0..dim).map(|_| normal.sample(rng)).collect());
    let parents: Vec<TxId> = ctx.sample_tips(&ctx.walk, cfg.hyper.num_tips.max(1), rng);
    StepOutcome {
        publish: Some(Publish {
            node: node.id,
            params,
            parents,
        }),
        new_loss: None,
        reference_loss: None,
    }
}

#[cfg(test)]
impl<'a, T: TangleRead<Payload = ModelParams> + Sync> RoundContext<'a, T> {
    /// Test oracle for [`Self::build_with_cache`]: the context from the
    /// batch weight/rating/depth DPs over `tangle`, never from an
    /// [`AnalysisCache`].
    pub(crate) fn from_dps(
        tangle: &'a T,
        cfg: &SimConfig,
        round: u64,
        telemetry: lt_telemetry::Telemetry,
    ) -> Self {
        let analysis = Arc::new(TangleAnalysis::compute_observed(tangle, &telemetry));
        let depths = tangle_ledger::analysis::depths(tangle);
        let walk = walk_table(tangle, &analysis, &depths, &cfg.hyper, &telemetry);
        Self::from_analysis(tangle, analysis, walk, cfg, round, telemetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feddata::blobs::{self, BlobsConfig};
    use lt_telemetry::Telemetry;
    use tinynn::rng::seeded;

    fn build() -> Sequential {
        tinynn::zoo::mlp(8, &[12], 4, &mut seeded(7))
    }

    /// One node step on a cold cache.
    fn step<T: TangleRead<Payload = ModelParams> + Sync>(
        node: &Node,
        ctx: &RoundContext<'_, T>,
        cfg: &SimConfig,
        rng: &mut impl RngExt,
    ) -> StepOutcome {
        node_step(node, ctx, &build(), cfg, rng, &mut EvalCache::default())
    }

    fn dataset() -> feddata::FederatedDataset {
        blobs::generate(
            &BlobsConfig {
                users: 6,
                samples_per_user: (20, 30),
                noise_std: 0.6,
                ..BlobsConfig::default()
            },
            9,
        )
    }

    fn genesis_tangle() -> Tangle<ModelParams> {
        Tangle::new(Arc::new(ParamVec::from_model(&build())))
    }

    #[test]
    fn behaviour_activation() {
        let ds = dataset();
        let mut n = Node::honest(0, ds.clients[0].clone());
        assert_eq!(n.behaviour(1000), Behaviour::Honest);
        n.kind = NodeKind::RandomPoisoner { from_round: 10 };
        assert_eq!(n.behaviour(9), Behaviour::Honest);
        assert_eq!(n.behaviour(10), Behaviour::RandomNoise);
        assert!(n.is_malicious(10));
        assert!(!n.is_malicious(9));
    }

    #[test]
    fn round_context_reference_is_genesis_initially() {
        let tangle = genesis_tangle();
        let cfg = SimConfig::default();
        let ctx = RoundContext::from_dps(&tangle, &cfg, 1, Telemetry::disabled());
        assert_eq!(ctx.reference_ids, vec![tangle.genesis()]);
        assert_eq!(
            &ctx.reference,
            tangle.get(tangle.genesis()).payload.as_ref()
        );
    }

    #[test]
    #[should_panic(expected = "windowed exactly when tip selection is")]
    fn from_analysis_rejects_a_table_without_the_configured_window() {
        let tangle = genesis_tangle();
        let mut cfg = SimConfig::default();
        let analysis = Arc::new(TangleAnalysis::compute(&tangle));
        // Built before the window was set: every walk would silently start
        // at the genesis.
        let walk = walk_table(&tangle, &analysis, &[0], &cfg.hyper, &Telemetry::disabled());
        cfg.hyper.window = Some(2);
        RoundContext::from_analysis(&tangle, analysis, walk, &cfg, 1, Telemetry::disabled());
    }

    #[test]
    #[should_panic(expected = "of another snapshot")]
    fn from_analysis_rejects_a_table_of_a_longer_prefix() {
        // The table covers one transaction more than the context's view.
        let mut tangle = genesis_tangle();
        let g = tangle.genesis();
        let params = tangle.get(g).payload.clone();
        tangle.add(params, vec![g]).unwrap();
        let cfg = SimConfig::default();
        let view = tangle_ledger::TangleView::new(&tangle, 1);
        let analysis = Arc::new(TangleAnalysis::compute(&view));
        let longer = TangleAnalysis::compute(&tangle);
        let walk = walk_table(
            &tangle,
            &longer,
            &[1, 0],
            &cfg.hyper,
            &Telemetry::disabled(),
        );
        RoundContext::from_analysis(&view, analysis, walk, &cfg, 1, Telemetry::disabled());
    }

    #[test]
    fn honest_node_publishes_when_it_improves() {
        // With a genesis-only tangle the reference is the random init, so a
        // locally trained model should usually beat it and be published.
        let ds = dataset();
        let tangle = genesis_tangle();
        let cfg = SimConfig {
            lr: 0.2,
            local_epochs: 3,
            ..SimConfig::default()
        };
        let ctx = RoundContext::from_dps(&tangle, &cfg, 1, Telemetry::disabled());
        let node = Node::honest(0, ds.clients[0].clone());
        let mut rng = seeded(11);
        let out = step(&node, &ctx, &cfg, &mut rng);
        let publish = out
            .publish
            .expect("training from random init should improve");
        // Both sampled tips are necessarily the genesis (duplicates are
        // kept here; the ledger collapses them at insertion).
        assert_eq!(publish.parents, vec![tangle.genesis(), tangle.genesis()]);
        assert_eq!(publish.node, 0);
        assert!(out.new_loss.unwrap() < out.reference_loss.unwrap());
    }

    #[test]
    fn random_poisoner_always_publishes_noise() {
        let ds = dataset();
        let tangle = genesis_tangle();
        let cfg = SimConfig::default();
        let ctx = RoundContext::from_dps(&tangle, &cfg, 5, Telemetry::disabled());
        let node = Node {
            id: 1,
            data: ds.clients[1].clone(),
            poisoned_data: None,
            kind: NodeKind::RandomPoisoner { from_round: 0 },
        };
        let mut rng = seeded(12);
        let out = step(&node, &ctx, &cfg, &mut rng);
        let p = out.publish.expect("poisoner always publishes");
        assert_eq!(p.params.len(), ctx.reference.len());
        assert!(out.new_loss.is_none());
        // noise is not all zeros
        assert!(p.params.as_slice().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn tip_validation_avoids_poison_tips() {
        // Tangle: genesis + one good (trained) tip + one noise tip.
        // With validation on and sample_size high, the node should select
        // the good tip (twice) and never approve the poison.
        let ds = dataset();
        let mut tangle = genesis_tangle();
        // good tip: genesis params actually trained a bit
        let mut model = build();
        let mut rng = seeded(20);
        fedavg::local_train(&mut model, &ds.clients[2], 3, 0.2, 8, &mut rng);
        let good = tangle
            .add(
                Arc::new(ParamVec::from_model(&model)),
                vec![tangle.genesis()],
            )
            .unwrap();
        let noise = tangle
            .add(
                Arc::new(ParamVec(vec![5.0; ctx_dim(&tangle)])),
                vec![tangle.genesis()],
            )
            .unwrap();
        let cfg = SimConfig {
            hyper: crate::TangleHyperParams {
                sample_size: 12,
                tip_validation: true,
                num_tips: 2,
                ..crate::TangleHyperParams::basic()
            },
            ..SimConfig::default()
        };
        let ctx = RoundContext::from_dps(&tangle, &cfg, 1, Telemetry::disabled());
        let node = Node::honest(3, ds.clients[3].clone());
        let mut rng = seeded(21);
        let out = step(&node, &ctx, &cfg, &mut rng);
        // Selected parents must be ranked best-first: good before noise if
        // both sampled; the top choice must never be the noise tip.
        if let Some(p) = out.publish {
            assert_ne!(p.parents[0], noise, "noise tip ranked first");
            assert_eq!(p.parents[0], good);
        }
    }

    fn ctx_dim(tangle: &Tangle<ModelParams>) -> usize {
        tangle.get(tangle.genesis()).payload.len()
    }

    #[test]
    fn accuracy_bias_steers_walk_toward_good_models() {
        // Same fork as the validation test, but the defense is OFF and the
        // §VI accuracy-biased walk is ON: the walk itself should avoid the
        // noise branch.
        let ds = dataset();
        let mut tangle = genesis_tangle();
        let mut model = build();
        let mut rng = seeded(30);
        fedavg::local_train(&mut model, &ds.clients[2], 3, 0.2, 8, &mut rng);
        let good = tangle
            .add(
                Arc::new(ParamVec::from_model(&model)),
                vec![tangle.genesis()],
            )
            .unwrap();
        let noise = tangle
            .add(
                Arc::new(ParamVec(vec![5.0; ctx_dim(&tangle)])),
                vec![tangle.genesis()],
            )
            .unwrap();
        let cfg = SimConfig {
            hyper: crate::TangleHyperParams {
                num_tips: 1,
                sample_size: 1,
                accuracy_bias: 1000.0,
                alpha: 1.0,
                ..crate::TangleHyperParams::basic()
            },
            lr: 0.2,
            local_epochs: 2,
            ..SimConfig::default()
        };
        let ctx = RoundContext::from_dps(&tangle, &cfg, 1, Telemetry::disabled());
        let node = Node::honest(4, ds.clients[4].clone());
        // Which tip is better *on this node's local data*? The biased walk
        // should favour that one (this is the point of the §VI bias: local
        // performance, enabling per-cluster sub-tangles).
        let arch = build();
        let local_acc =
            |id: tangle_ledger::TxId| eval_params(&arch, &tangle.get(id).payload, &node.data).1;
        let (acc_good, acc_noise) = (local_acc(good), local_acc(noise));
        let winner = if acc_good >= acc_noise { good } else { noise };
        let mut winner_hits = 0;
        let mut total = 0;
        for s in 0..10 {
            let mut rng = seeded(100 + s);
            let out = step(&node, &ctx, &cfg, &mut rng);
            if let Some(p) = out.publish {
                total += 1;
                if p.parents[0] == winner {
                    winner_hits += 1;
                }
            }
        }
        assert!(total > 0, "node never published");
        assert!(
            winner_hits * 2 > total,
            "biased walk should mostly pick the locally better tip \
             (good {acc_good:.2} vs noise {acc_noise:.2}): {winner_hits}/{total}"
        );
    }

    /// Load a copy of `params` into a model of `arch` and evaluate it on a
    /// client's held-out data — the copy-then-evaluate form that scoring in
    /// place replaced.
    fn loaded_eval(arch: &Sequential, params: &ParamVec, data: &ClientData) -> (f32, f32) {
        let model = arch.with_params(params.as_slice().to_vec());
        model.evaluate(&data.test_x, &data.test_y)
    }

    /// Oracle for [`node_step`] on an honest node: Algorithm 2 as the paper
    /// states it — every evaluation on a model loaded with a copy, every tip
    /// draw in a serial loop, nothing memoized.
    fn naive_step(
        node: &Node,
        ctx: &RoundContext<'_>,
        cfg: &SimConfig,
        rng: &mut impl RngExt,
    ) -> StepOutcome {
        let hyper = &cfg.hyper;
        let data = &node.data;
        let arch = build();
        let reference_loss = loaded_eval(&arch, &ctx.reference, data).0;
        let biased: Option<WalkTable> = (hyper.accuracy_bias > 0.0).then(|| {
            let bias: Vec<f64> = ctx
                .tangle
                .transactions()
                .iter()
                .map(|tx| hyper.accuracy_bias * loaded_eval(&arch, &tx.payload, data).1 as f64)
                .collect();
            let w = &ctx.analysis.cumulative_weight;
            RandomWalk::new(hyper.alpha).biased_table(ctx.tangle, w, &bias)
        });
        // One exit-mass draw per tip on the node's generator, from the
        // snapshot's table or this step's biased one; the `walk_table_*`
        // tests check both against a descending DP and against the walk
        // they replace.
        let table = biased.as_ref().unwrap_or(&ctx.walk);
        let k = hyper.sample_size.max(hyper.num_tips);
        let samples: Vec<TxId> = (0..k).map(|_| table.draw_tip(rng)).collect();
        let parents: Vec<TxId> = if hyper.tip_validation {
            let mut distinct = samples.clone();
            distinct.sort_unstable();
            distinct.dedup();
            let mut scored: Vec<(f32, TxId)> = distinct
                .into_iter()
                .map(|tip| {
                    let loss = loaded_eval(&arch, &ctx.tangle.get(tip).payload, data).0;
                    (loss, tip)
                })
                .collect();
            scored.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite losses"));
            scored
                .into_iter()
                .take(hyper.num_tips.max(1))
                .map(|(_, t)| t)
                .collect()
        } else {
            samples.into_iter().take(hyper.num_tips.max(1)).collect()
        };
        let payloads: Vec<&ParamVec> = parents
            .iter()
            .map(|id| ctx.tangle.get(*id).payload.as_ref())
            .collect();
        let mut model = arch.with_params(ParamVec::average(&payloads).0);
        local_train(
            &mut model,
            data,
            cfg.local_epochs,
            cfg.lr,
            cfg.batch_size,
            rng,
        );
        let new_params = ParamVec::from_model(&model);
        let (new_loss, _) = model.evaluate(&data.test_x, &data.test_y);
        StepOutcome {
            publish: (new_loss < reference_loss).then_some(Publish {
                node: node.id,
                params: new_params,
                parents,
            }),
            new_loss: Some(new_loss),
            reference_loss: Some(reference_loss),
        }
    }

    /// Ten transactions of lightly trained models over a branching DAG
    /// with five tips.
    fn grown_tangle(ds: &feddata::FederatedDataset) -> Tangle<ModelParams> {
        let mut tangle = genesis_tangle();
        for i in 1..=9u32 {
            let mut model = build();
            let mut rng = seeded(40 + u64::from(i));
            fedavg::local_train(&mut model, &ds.clients[i as usize % 6], 1, 0.1, 8, &mut rng);
            let parents = vec![TxId(i / 2), TxId(i / 3)];
            tangle
                .add(Arc::new(ParamVec::from_model(&model)), parents)
                .unwrap();
        }
        tangle
    }

    /// A step outcome down to the bit.
    type OutcomeBits = (Option<(Vec<u32>, Vec<TxId>)>, Option<u32>, Option<u32>);

    fn outcome_bits(out: &StepOutcome) -> OutcomeBits {
        (
            out.publish.as_ref().map(|p| {
                let params = p.params.as_slice().iter().map(|v| v.to_bits()).collect();
                (params, p.parents.clone())
            }),
            out.new_loss.map(f32::to_bits),
            out.reference_loss.map(f32::to_bits),
        )
    }

    #[test]
    fn node_step_matches_the_naive_algorithm() {
        // The production step — memoized, candidates evaluated in place as
        // a rayon batch — must agree to the bit with the serial uncached
        // statement of Algorithm 2 on loaded copies, on a cold cache and on
        // a warm one.
        let ds = dataset();
        let tangle = grown_tangle(&ds);
        let validated = crate::TangleHyperParams {
            sample_size: 8,
            tip_validation: true,
            ..crate::TangleHyperParams::basic()
        };
        let variants = [
            ("basic", crate::TangleHyperParams::basic()),
            ("validated", validated),
            (
                "biased",
                crate::TangleHyperParams {
                    accuracy_bias: 0.5,
                    ..validated
                },
            ),
            (
                "windowed",
                crate::TangleHyperParams {
                    window: Some(2),
                    ..validated
                },
            ),
            (
                "biased+windowed",
                crate::TangleHyperParams {
                    accuracy_bias: 0.5,
                    window: Some(2),
                    ..validated
                },
            ),
        ];
        for (tag, hyper) in variants {
            let cfg = SimConfig {
                lr: 0.2,
                batch_size: 8,
                hyper,
                ..SimConfig::default()
            };
            let tel = Telemetry::new(lt_telemetry::NoopSink);
            let ctx = RoundContext::from_dps(&tangle, &cfg, 1, tel.clone());
            let arch = build();
            for ni in 0..3 {
                let node = Node::honest(ni, ds.clients[ni].clone());
                let naive = naive_step(&node, &ctx, &cfg, &mut seeded(60 + ni as u64));
                let mut cache = EvalCache::default();
                let hits_before = tel.counter_value("eval_cache.hits");
                for pass in ["cold", "warm"] {
                    let mut rng = seeded(60 + ni as u64);
                    let walks_before = tel.counter_value("tangle.walks");
                    let out = node_step(&node, &ctx, &arch, &cfg, &mut rng, &mut cache);
                    assert_eq!(
                        outcome_bits(&out),
                        outcome_bits(&naive),
                        "{tag}, node {ni}, {pass} cache"
                    );
                    // Every tip draw is counted, biased ones included.
                    assert_eq!(
                        tel.counter_value("tangle.walks") - walks_before,
                        hyper.sample_size.max(hyper.num_tips) as u64,
                        "{tag}, node {ni}, {pass} cache: tip draws counted"
                    );
                }
                // Only scored candidates are memoized: the basic step
                // evaluates the reference alone and never probes.
                let scores = cfg.hyper.tip_validation || cfg.hyper.accuracy_bias > 0.0;
                assert_eq!(
                    tel.counter_value("eval_cache.hits") > hits_before,
                    scores,
                    "{tag}: the warm step must be served from the cache exactly when it scores candidates"
                );
            }
        }
    }
}
