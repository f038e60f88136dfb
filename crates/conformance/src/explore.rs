//! Schedule exploration: drive the round simulator and the gossip
//! network through equivalent schedules and check them against the
//! reference model plus standalone invariants.
//!
//! Two layers of checking per schedule:
//!
//! 1. **Model differential** — the round simulator runs the schedule's
//!    activation order, and the naive [`StructModel`] recomputes weights,
//!    ratings, depths, tips, confirmation, and the reference pick of its
//!    ledger from the definitions; they must match the bitset DPs.
//! 2. **Gossip invariants** — the same schedule, reinterpreted as peer
//!    activations plus delivery windows and churn, runs on the gossip
//!    network; after every op each replica must stay acyclic and under
//!    the orphan cap, [`NetStats`](tangle_gossip::NetStats) must stay
//!    monotone with balanced eviction accounting, and both the real
//!    [`AnalysisCache`] and this crate's [`ShadowCache`] must agree with
//!    the from-scratch DPs on every replica they refresh against.

use crate::model::{ShadowCache, StructModel};
use crate::schedule::{Op, Schedule};
use feddata::blobs::{self, BlobsConfig};
use feddata::FederatedDataset;
use learning_tangle::{SimConfig, Simulation, TangleHyperParams};
use tangle_gossip::learn::GossipLearning;
use tangle_gossip::{CrashEvent, FaultPlan, Latency, Network, NetworkConfig, Recovery, Topology};
use tangle_ledger::analysis::{self, TangleAnalysis};
use tangle_ledger::walk::RandomWalk;
use tangle_ledger::{AnalysisCache, Tangle};
use tinynn::rng::{derive, seeded};
use tinynn::Sequential;

/// Orphan cap used for conformance networks — small enough that the
/// orphan-cap invariant actually bites.
const ORPHAN_CAP: usize = 16;

/// A deliberately injected bug, used to prove the harness detects the
/// class of defect it exists for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// No mutation: the real protocol, expected violation-free.
    None,
    /// The [`ShadowCache`] validates only the *length* of its cached
    /// prefix, not its content, before extending incrementally — so
    /// after a peer crashes, restarts empty, and regrows its replica in
    /// a different arrival order, the cache silently serves weights for
    /// a ledger that no longer exists.
    StaleCache,
}

/// One conformance failure: which invariant broke and how.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Violation {
    /// Stable invariant name (used to match failures while shrinking).
    pub invariant: String,
    /// Human-readable evidence.
    pub detail: String,
}

impl Violation {
    fn new(invariant: &str, detail: String) -> Self {
        Self {
            invariant: invariant.into(),
            detail,
        }
    }
}

fn dataset(schedule: &Schedule) -> FederatedDataset {
    blobs::generate(
        &BlobsConfig {
            users: schedule.nodes,
            samples_per_user: (18, 24),
            noise_std: 0.6,
            ..BlobsConfig::default()
        },
        derive(schedule.seed, 0xDA7A),
    )
}

fn build() -> Sequential {
    tinynn::zoo::mlp(8, &[10], 4, &mut seeded(5))
}

fn sim_cfg(seed: u64) -> SimConfig {
    SimConfig {
        nodes_per_round: 3,
        lr: 0.2,
        batch_size: 8,
        eval_fraction: 0.5,
        seed,
        hyper: TangleHyperParams {
            sample_size: 4,
            ..TangleHyperParams::basic()
        },
        ..SimConfig::default()
    }
}

/// Run every check over one schedule.
pub fn check_schedule(schedule: &Schedule, mutation: Mutation) -> Result<(), Violation> {
    check_round_sim(schedule)?;
    check_gossip(schedule, mutation)
}

/// Generate `schedules` seeded schedules over a 5-node population and
/// check each; returns the failures (schedule + first violation).
pub fn explore(schedules: usize, seed: u64, mutation: Mutation) -> Vec<(Schedule, Violation)> {
    let mut failures = Vec::new();
    for i in 0..schedules {
        let s = Schedule::generate(derive(seed, i as u64), 5, 14);
        if let Err(v) = check_schedule(&s, mutation) {
            failures.push((s, v));
        }
    }
    failures
}

// ---- model differential ----------------------------------------------

fn check_round_sim(schedule: &Schedule) -> Result<(), Violation> {
    let cfg = sim_cfg(schedule.seed);
    let mut sim = Simulation::new(dataset(schedule), cfg.clone(), build);
    for r in schedule.rounds() {
        sim.round_with_nodes(&r);
    }
    check_ledger_invariants(sim.tangle(), &cfg)
}

/// Model-differential and standalone invariants over one final ledger:
/// acyclicity, weight/rating/depth/tip agreement with the naive
/// [`StructModel`], exact confidence against the naive model, approval
/// monotonicity, confidence bounds, and the reference pick. Public so
/// external differential harnesses (e.g. the `lt-net` cross-process
/// conformance test) can run the same pass over a ledger reconstructed
/// from daemon archives.
pub fn check_ledger_invariants(
    tangle: &Tangle<learning_tangle::node::ModelParams>,
    cfg: &SimConfig,
) -> Result<(), Violation> {
    let views = tangle.structure();
    let model = StructModel::new(&views)
        .map_err(|e| Violation::new("acyclicity", format!("round-sim ledger: {}", e.0)))?;
    let real = TangleAnalysis::compute(tangle);
    if model.weights() != real.cumulative_weight {
        return Err(Violation::new(
            "model-weights",
            format!(
                "naive {:?} vs DP {:?}",
                model.weights(),
                real.cumulative_weight
            ),
        ));
    }
    if model.ratings() != real.rating {
        return Err(Violation::new(
            "model-ratings",
            format!("naive {:?} vs DP {:?}", model.ratings(), real.rating),
        ));
    }
    if model.depths() != analysis::depths(tangle) {
        return Err(Violation::new(
            "model-depths",
            "depth sweep diverges".into(),
        ));
    }
    let real_tips: Vec<u32> = tangle.tips().iter().map(|id| id.index() as u32).collect();
    if model.tips() != real_tips {
        return Err(Violation::new(
            "model-tips",
            format!("naive {:?} vs real {real_tips:?}", model.tips()),
        ));
    }
    // Approval monotonicity: approving `c` adds at least `c` itself to the
    // parent's future cone, so weights strictly grow toward the genesis.
    for tx in &views {
        for &p in &tx.parents {
            if real.cumulative_weight[p as usize] < real.cumulative_weight[tx.id as usize] + 1 {
                return Err(Violation::new(
                    "weight-monotone",
                    format!("w({p}) < w({}) + 1", tx.id),
                ));
            }
        }
    }
    // Confidence invariants. The walk table's exact confidence and the
    // approval weighted by its tips' exit masses (a tip's confidence) are
    // probabilities, 1 on the genesis. The exit masses sum to 1 up to
    // their f32 rounding (at most 2^-24 of the total), checked to 1e-6.
    let walk = RandomWalk::new(cfg.hyper.alpha).table(tangle, &real.cumulative_weight);
    let conf: Vec<f64> = walk.confidence().iter().map(|&c| c.into()).collect();
    let exit: Vec<f64> = model.tips().iter().map(|&t| conf[t as usize]).collect();
    let approval = model.tip_approval(&exit);
    for (name, values) in [("walk", &conf), ("approval", &approval)] {
        if !values.iter().all(|c| (0.0..=1.0).contains(c)) {
            return Err(Violation::new(
                "confidence-bounds",
                format!("{name} confidence out of [0,1]: {values:?}"),
            ));
        }
        if values[0] != 1.0 {
            return Err(Violation::new(
                "confidence-bounds",
                format!("{name} confidence of the genesis is {} != 1", values[0]),
            ));
        }
    }
    // The table's confidence is the walk's pass-through probability, as
    // the naive model computes it from the definition.
    let naive = model.confidence(&model.weights(), cfg.hyper.alpha);
    if let Some(i) = (0..conf.len()).find(|&i| (conf[i] - naive[i]).abs() > 1e-6) {
        return Err(Violation::new(
            "confidence-flow",
            format!("tx {i}: table confidence {}, naive {}", conf[i], naive[i]),
        ));
    }
    let exit_total: f64 = exit.iter().sum();
    if (exit_total - 1.0).abs() > 1e-6 {
        return Err(Violation::new(
            "confidence-bounds",
            format!("the tips' exit masses sum to {exit_total}"),
        ));
    }
    // Approval is monotone along approval edges: every tip approving a
    // child approves its parents too. Exact: both sums run in tip order.
    for tx in &views {
        for &p in &tx.parents {
            if approval[p as usize] < approval[tx.id as usize] {
                return Err(Violation::new(
                    "confidence-monotone",
                    format!(
                        "approval({p}) = {} < approval({}) = {}",
                        approval[p as usize], tx.id, approval[tx.id as usize]
                    ),
                ));
            }
        }
    }
    // A confirmed transaction is in every tip's past cone, so every walk
    // ends at a tip approving it: approval exactly 1, as its share and the
    // total are the same sum.
    for c in model.confirmed() {
        if approval[c as usize] != 1.0 {
            return Err(Violation::new(
                "confirmed-confidence",
                format!(
                    "confirmed tx {c} has approval confidence {}",
                    approval[c as usize]
                ),
            ));
        }
    }
    // Reference selection: naive selection loop vs the real comparator.
    let picks: Vec<u32> = real
        .choose_reference(walk.confidence(), cfg.hyper.reference_avg)
        .iter()
        .map(|id| id.index() as u32)
        .collect();
    let naive = model.choose_reference(walk.confidence(), &real.rating, cfg.hyper.reference_avg);
    if picks != naive {
        return Err(Violation::new(
            "reference-pick",
            format!("real {picks:?} vs naive {naive:?}"),
        ));
    }
    Ok(())
}

// ---- gossip interpretation -------------------------------------------

/// Translate the schedule's churn ops into a [`FaultPlan`] on the virtual
/// clock (one tick per activation, `Deliver` ticks verbatim). Returns the
/// plan and the clock horizon.
fn fault_plan(schedule: &Schedule) -> (FaultPlan, u64) {
    let n = schedule.nodes;
    let mut tick = 0u64;
    let mut open: Vec<Option<usize>> = vec![None; n];
    let mut crashes: Vec<CrashEvent> = Vec::new();
    for op in &schedule.ops {
        match *op {
            Op::Activate { .. } => tick += 1,
            Op::Deliver { ticks } => tick += ticks,
            Op::Crash { peer } => {
                let p = peer % n;
                if open[p].is_none() {
                    open[p] = Some(crashes.len());
                    crashes.push(CrashEvent {
                        peer: p,
                        at: tick + 1,
                        restart_at: None,
                        recovery: Recovery::Empty,
                    });
                }
            }
            Op::Restart {
                peer,
                from_checkpoint,
            } => {
                let p = peer % n;
                if let Some(i) = open[p].take() {
                    crashes[i].restart_at = Some((tick + 1).max(crashes[i].at + 1));
                    crashes[i].recovery = if from_checkpoint {
                        Recovery::FromCheckpoint
                    } else {
                        Recovery::Empty
                    };
                }
            }
        }
    }
    // A shrunk schedule may have dropped the restart: close dangling
    // crashes just past the horizon so the network can always recover.
    for c in &mut crashes {
        if c.restart_at.is_none() {
            c.restart_at = Some((tick + 1).max(c.at + 1));
        }
    }
    let plan = FaultPlan {
        seed: derive(schedule.seed, 0xFA17),
        drop: 0.01,
        duplicate: 0.03,
        corrupt: 0.01,
        reorder_jitter: 1,
        crashes,
    };
    (plan, tick)
}

/// Copy the [`tangle_gossip::NetStats`] counters into a fixed array for
/// monotonicity snapshots.
fn stats_array(net: &Network) -> [u64; 10] {
    let s = &net.stats;
    [
        s.delivered,
        s.dropped,
        s.duplicates,
        s.orphaned,
        s.rejected,
        s.discarded,
        s.rerequests,
        s.evicted,
        s.announced,
        s.requested,
    ]
}

const STAT_NAMES: [&str; 10] = [
    "delivered",
    "dropped",
    "duplicates",
    "orphaned",
    "rejected",
    "discarded",
    "rerequests",
    "evicted",
    "announced",
    "requested",
];

/// Per-replica differential between the cached analyses (the real
/// [`AnalysisCache`] and this crate's [`ShadowCache`]) and the
/// from-scratch DPs — the stale-cache oracle. Public so churn tests can
/// run the same pass over their own intermediate states.
pub fn check_replica_caches(
    replica: &Tangle<learning_tangle::node::ModelParams>,
    shadow: &mut ShadowCache,
    real: &mut AnalysisCache,
    mutation: Mutation,
    peer: usize,
) -> Result<(), Violation> {
    let views = replica.structure();
    let truth_w = analysis::cumulative_weights(replica);
    let truth_r = analysis::ratings(replica);
    shadow.refresh(&views, mutation != Mutation::StaleCache);
    stale_table(
        peer,
        [
            ("weights", shadow.weights(), &truth_w),
            ("ratings", shadow.ratings(), &truth_r),
        ],
    )?;
    real.refresh(replica);
    if real.weights() != truth_w
        || real.ratings() != truth_r
        || real.depths() != analysis::depths(replica)
        || real.tips() != replica.tips()
    {
        return Err(Violation::new(
            "stale-analysis-cache",
            format!("peer {peer}: AnalysisCache serves stale tables after refresh"),
        ));
    }
    Ok(())
}

/// The first of `tables` — `(name, cached, recomputed)` — whose cached
/// copy differs, as a `stale-shadow-cache` violation that names and
/// prints that table.
fn stale_table(peer: usize, tables: [(&str, &[u32], &[u32]); 2]) -> Result<(), Violation> {
    match tables.iter().find(|(_, cached, truth)| cached != truth) {
        Some((name, cached, truth)) => Err(Violation::new(
            "stale-shadow-cache",
            format!("peer {peer}: cached {name} {cached:?} vs recomputed {truth:?}"),
        )),
        None => Ok(()),
    }
}

/// Stateful invariant checker over a gossip network's observable state:
/// per-replica acyclicity, orphan-cap bounds, [`NetStats`]
/// monotonicity, and eviction accounting across peer lifetimes. Create
/// once, then [`check`](Self::check) after every state transition.
///
/// [`NetStats`]: tangle_gossip::NetStats
pub struct GossipChecker {
    orphan_cap: usize,
    prev: [u64; 10],
    evict_base: u64,
    evict_seen: Vec<u64>,
    was_up: Vec<bool>,
}

impl GossipChecker {
    /// Start tracking `net` (snapshots the current counters), enforcing
    /// `orphan_cap` as the per-peer orphan-buffer bound.
    pub fn new(net: &Network, orphan_cap: usize) -> Self {
        let n = net.len();
        Self {
            orphan_cap,
            prev: stats_array(net),
            evict_base: 0,
            evict_seen: vec![0; n],
            was_up: vec![true; n],
        }
    }

    /// Structural + accounting invariants over the whole network, run
    /// after every op. `at_op` labels the violation.
    pub fn check(&mut self, net: &Network, at_op: usize) -> Result<(), Violation> {
        let now = stats_array(net);
        for i in 0..8 {
            if now[i] < self.prev[i] {
                return Err(Violation::new(
                    "netstats-monotone",
                    format!(
                        "op {at_op}: stats.{} went backwards: {} -> {}",
                        STAT_NAMES[i], self.prev[i], now[i]
                    ),
                ));
            }
        }
        self.prev = now;
        let mut restarted = false;
        for p in 0..self.was_up.len() {
            let peer = net.peer(p);
            StructModel::new(&peer.replica().structure()).map_err(|e| {
                Violation::new(
                    "acyclicity",
                    format!("op {at_op}, peer {p} replica: {}", e.0),
                )
            })?;
            if peer.orphan_count() > self.orphan_cap {
                return Err(Violation::new(
                    "orphan-cap",
                    format!(
                        "op {at_op}: peer {p} buffers {} orphans (cap {})",
                        peer.orphan_count(),
                        self.orphan_cap
                    ),
                ));
            }
            // Eviction accounting: peer restarts reset the per-peer
            // counter, so fold the finished lifetime into the base.
            let up = net.is_up(p);
            let e = peer.evictions();
            if (!self.was_up[p] && up) || e < self.evict_seen[p] {
                restarted = true;
                self.evict_base += self.evict_seen[p];
            }
            self.evict_seen[p] = e;
            self.was_up[p] = up;
        }
        // The balance is exact except across a restart boundary, where a
        // lifetime may end between two observation points.
        let balance = self.evict_base + self.evict_seen.iter().sum::<u64>();
        if !restarted && now[7] != balance {
            return Err(Violation::new(
                "eviction-balance",
                format!(
                    "op {at_op}: stats.evicted = {} but peer lifetimes account for {balance}",
                    now[7]
                ),
            ));
        }
        Ok(())
    }
}

fn check_gossip(schedule: &Schedule, mutation: Mutation) -> Result<(), Violation> {
    let n = schedule.nodes;
    let cfg = sim_cfg(schedule.seed);
    let net_cfg = NetworkConfig {
        topology: Topology::FullMesh,
        latency: Latency { min: 1, max: 2 },
        loss: 0.0,
        pow_difficulty: 0,
        seed: derive(schedule.seed, 0x6055),
        orphan_cap: ORPHAN_CAP,
    };
    let mut gl = GossipLearning::new(dataset(schedule), cfg, net_cfg, build);
    gl.network_mut().set_checkpointing(4, None);
    let (plan, horizon) = fault_plan(schedule);
    let max_restart = plan
        .crashes
        .iter()
        .filter_map(|c| c.restart_at)
        .max()
        .unwrap_or(0);
    gl.network_mut().install_faults(plan);

    let mut shadows: Vec<ShadowCache> = (0..n).map(|_| ShadowCache::new()).collect();
    let mut caches: Vec<AnalysisCache> = (0..n)
        .map(|p| AnalysisCache::new(gl.network().peer(p).replica()))
        .collect();
    let mut checker = GossipChecker::new(gl.network(), ORPHAN_CAP);

    for (at_op, op) in schedule.ops.iter().enumerate() {
        match *op {
            Op::Activate { node } => {
                let p = node % n;
                let trained = gl.network().is_up(p);
                gl.activate(p);
                if trained {
                    // The learner consulted its cache for this replica:
                    // mirror that read differentially.
                    check_replica_caches(
                        gl.network().peer(p).replica(),
                        &mut shadows[p],
                        &mut caches[p],
                        mutation,
                        p,
                    )?;
                }
            }
            Op::Deliver { ticks } => {
                gl.network_mut().advance(ticks);
            }
            // Churn is pre-installed as a fault plan on the same clock.
            Op::Crash { .. } | Op::Restart { .. } => {}
        }
        checker.check(gl.network(), at_op)?;
    }

    // Let trailing restarts fire, then require reconvergence.
    let extra = max_restart.saturating_sub(horizon) + 4;
    gl.network_mut().advance(extra);
    if !gl.network_mut().repair_to_quiescence(96) {
        return Err(Violation::new(
            "gossip-repair",
            "network failed to reach quiescence after the schedule".into(),
        ));
    }
    checker.check(gl.network(), schedule.ops.len())?;
    if !gl.network().replicas_consistent() {
        return Err(Violation::new(
            "gossip-consistency",
            "replicas disagree after repair".into(),
        ));
    }
    // Final differential pass over every replica (catches stale caches
    // even when the schedule ends without re-activating the victim).
    for p in 0..n {
        check_replica_caches(
            gl.network().peer(p).replica(),
            &mut shadows[p],
            &mut caches[p],
            mutation,
            p,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stale_table_names_and_prints_the_table_that_differs() {
        let w: &[u32] = &[5, 3, 1];
        let v = stale_table(2, [("weights", w, w), ("ratings", &[4, 2, 1], &[4, 1, 1])])
            .expect_err("a ratings-only mismatch is a violation");
        assert_eq!(v.invariant, "stale-shadow-cache");
        assert_eq!(
            v.detail,
            "peer 2: cached ratings [4, 2, 1] vs recomputed [4, 1, 1]"
        );
        assert_eq!(
            stale_table(2, [("weights", w, w), ("ratings", w, w)]),
            Ok(())
        );
    }
}
