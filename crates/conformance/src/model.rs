//! The abstract reference model.
//!
//! Everything here is deliberately *naive*: plain reachability sweeps over
//! the payload-free [`TxView`] structure instead of the bitset dynamic
//! programs and incremental caches the real crates use. A naive
//! implementation that is obviously faithful to the definitions is what
//! makes the differential comparison in [`mod@crate::explore`] an oracle
//! rather than a tautology.

use tangle_ledger::TxView;

/// Structural well-formedness failure of a ledger view.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Malformed(pub String);

/// The reference model of one ledger snapshot: independent implementations
/// of every derived quantity the consensus layer computes.
pub struct StructModel<'a> {
    txs: &'a [TxView],
    /// `children[i]` = direct approvers of `i`, in insertion order.
    children: Vec<Vec<usize>>,
}

impl<'a> StructModel<'a> {
    /// Validate structural invariants (the acyclicity oracle) and build
    /// the model. Checks: contiguous ids in insertion order, a unique
    /// genesis with no parents, and every non-genesis transaction
    /// approving only *earlier* transactions through sorted, deduplicated
    /// parent lists — which together guarantee the graph is a DAG.
    pub fn new(txs: &'a [TxView]) -> Result<Self, Malformed> {
        let mut children = vec![Vec::new(); txs.len()];
        for (i, tx) in txs.iter().enumerate() {
            if tx.id as usize != i {
                return Err(Malformed(format!(
                    "tx at position {i} has id {} (ids must be the insertion order)",
                    tx.id
                )));
            }
            if i == 0 {
                if !tx.parents.is_empty() || tx.issuer != u64::MAX {
                    return Err(Malformed("genesis must be parentless and unissued".into()));
                }
                continue;
            }
            if tx.parents.is_empty() {
                return Err(Malformed(format!("tx {i} approves nothing")));
            }
            if !tx.parents.windows(2).all(|w| w[0] < w[1]) {
                return Err(Malformed(format!(
                    "tx {i} parents not sorted+deduped: {:?}",
                    tx.parents
                )));
            }
            for &p in &tx.parents {
                if p as usize >= i {
                    return Err(Malformed(format!(
                        "tx {i} approves {p}: not an earlier transaction (cycle or dangling edge)"
                    )));
                }
                children[p as usize].push(i);
            }
        }
        Ok(Self { txs, children })
    }

    /// Past cone of `i` (excluding `i`), as a membership mask.
    fn past_mask(&self, i: usize) -> Vec<bool> {
        let mut seen = vec![false; self.txs.len()];
        let mut stack: Vec<usize> = self.txs[i].parents.iter().map(|&p| p as usize).collect();
        while let Some(x) = stack.pop() {
            if !seen[x] {
                seen[x] = true;
                stack.extend(self.txs[x].parents.iter().map(|&p| p as usize));
            }
        }
        seen
    }

    /// Cumulative weights by definition: `w(t) = 1 + |{x : t ∈ past(x)}|`.
    pub(crate) fn weights(&self) -> Vec<u32> {
        let mut out = vec![1u32; self.txs.len()];
        for i in 0..self.txs.len() {
            for (a, &inside) in self.past_mask(i).iter().enumerate() {
                if inside {
                    out[a] += 1;
                }
            }
        }
        out
    }

    /// Ratings by definition: `r(t) = |past(t)|` (genesis 0).
    pub(crate) fn ratings(&self) -> Vec<u32> {
        (0..self.txs.len())
            .map(|i| self.past_mask(i).iter().filter(|&&x| x).count() as u32)
            .collect()
    }

    /// Tips: transactions nobody approves, in id order.
    pub fn tips(&self) -> Vec<u32> {
        (0..self.txs.len())
            .filter(|&i| self.children[i].is_empty())
            .map(|i| i as u32)
            .collect()
    }

    /// Depths: longest approval path from any tip down to each
    /// transaction (tips are 0).
    pub(crate) fn depths(&self) -> Vec<u32> {
        let mut out = vec![0u32; self.txs.len()];
        for i in (0..self.txs.len()).rev() {
            out[i] = self.children[i]
                .iter()
                .map(|&c| out[c] + 1)
                .max()
                .unwrap_or(0);
        }
        out
    }

    /// Per-transaction approval: the share of `tip_weight` (one weight per
    /// tip of [`Self::tips`], in that order) held by the tips whose past
    /// cone (tip included) contains it. Equal weights give the fraction of
    /// tips approving it; a walk table's exit masses give the chance that a
    /// walk ends at a tip approving it. Shares and their total are summed
    /// in tip order, so a transaction that every tip approves reads exactly
    /// 1.0 and a parent never reads less than its child.
    ///
    /// # Panics
    /// Panics unless there is one weight per tip.
    pub fn tip_approval(&self, tip_weight: &[f64]) -> Vec<f64> {
        let tips = self.tips();
        assert_eq!(tip_weight.len(), tips.len(), "one weight per tip");
        let (mut hit, mut total) = (vec![0.0f64; self.txs.len()], 0.0f64);
        for (&t, &w) in tips.iter().zip(tip_weight) {
            total += w;
            hit[t as usize] += w;
            for (a, &inside) in self.past_mask(t as usize).iter().enumerate() {
                if inside {
                    hit[a] += w;
                }
            }
        }
        hit.iter().map(|&h| h / total).collect()
    }

    /// [`Self::tip_approval`] with every tip weighing the same: the
    /// fraction of current tips approving each transaction — 1.0 means
    /// *confirmed* in the Fig. 2 sense.
    pub fn uniform_tip_approval(&self) -> Vec<f64> {
        self.tip_approval(&vec![1.0; self.tips().len()])
    }

    /// Confirmed transactions: non-genesis, non-tip, approved by every
    /// current tip.
    pub(crate) fn confirmed(&self) -> Vec<u32> {
        let approval = self.uniform_tip_approval();
        (1..self.txs.len())
            .filter(|&i| !self.children[i].is_empty() && approval[i] == 1.0)
            .map(|i| i as u32)
            .collect()
    }

    /// Confidence by its definition (§III-A): the chance that the weighted
    /// walk from the genesis passes each transaction. `h(genesis) = 1` and
    /// `h(x) = Σ h(p) · P(p → x)` over the transactions `p` that `x`
    /// approves, where `P(p → x) ∝ exp(α · w(x))` among `p`'s approvers.
    pub(crate) fn confidence(&self, weights: &[u32], alpha: f64) -> Vec<f64> {
        let mut h = vec![0.0f64; self.txs.len()];
        if let Some(genesis) = h.first_mut() {
            *genesis = 1.0;
        }
        for p in 0..self.txs.len() {
            let kids = &self.children[p];
            let max = kids.iter().map(|&c| weights[c]).max().unwrap_or(0) as f64;
            let step = |c: usize| (alpha * (weights[c] as f64 - max)).exp();
            let total: f64 = kids.iter().map(|&c| step(c)).sum();
            for &c in kids {
                h[c] += h[p] * step(c) / total;
            }
        }
        h
    }

    /// Algorithm 1, reimplemented from the paper text: the `n` ids with
    /// the highest `confidence × rating`, ties toward higher (fresher)
    /// ids. A selection loop rather than a sort, so the tie-breaking logic
    /// is independent of the real implementation's comparator.
    pub(crate) fn choose_reference(
        &self,
        confidence: &[f32],
        ratings: &[u32],
        n: usize,
    ) -> Vec<u32> {
        let mut taken = vec![false; self.txs.len()];
        let mut out = Vec::new();
        for _ in 0..n.min(self.txs.len()) {
            let mut best: Option<(f64, u32)> = None;
            for i in 0..self.txs.len() {
                if taken[i] {
                    continue;
                }
                let score = confidence[i] as f64 * ratings[i] as f64;
                let better = match best {
                    None => true,
                    Some((s, id)) => score > s || (score == s && i as u32 > id),
                };
                if better {
                    best = Some((score, i as u32));
                }
            }
            let (_, id) = best.expect("n bounded by len");
            taken[id as usize] = true;
            out.push(id);
        }
        out
    }
}

/// The conformance harness's own incremental weights/ratings cache over a
/// replica's structure — a naive mirror of
/// [`tangle_ledger::AnalysisCache`], used as the differential counterpart
/// to the batch DPs when replaying gossip schedules.
///
/// `validate_history` selects the correct behaviour (compare the stored
/// prefix *content* before extending incrementally) or the deliberately
/// buggy one ([`crate::explore::Mutation::StaleCache`]: compare lengths
/// only), which silently extends on top of a diverged prefix after a peer
/// regrows its replica post-churn — exactly the class of bug the real
/// cache's history validation exists to prevent.
#[derive(Default)]
pub struct ShadowCache {
    prefix: Vec<TxView>,
    weights: Vec<u32>,
    ratings: Vec<u32>,
    /// Full recomputations performed.
    pub rebuilds: u64,
}

impl ShadowCache {
    /// An empty cache (first refresh is a rebuild).
    pub fn new() -> Self {
        Self::default()
    }

    /// Cached cumulative weights, aligned with the last refreshed view.
    pub(crate) fn weights(&self) -> &[u32] {
        &self.weights
    }

    /// Cached ratings, aligned with the last refreshed view.
    pub(crate) fn ratings(&self) -> &[u32] {
        &self.ratings
    }

    fn rebuild(&mut self, view: &[TxView]) {
        let model = StructModel::new(view).expect("refresh requires a well-formed view");
        self.weights = model.weights();
        self.ratings = model.ratings();
        self.rebuilds += 1;
    }

    /// Bring the cache up to date with `view`. With `validate_history`
    /// the stored prefix is compared by content and any divergence forces
    /// a rebuild; without it only lengths are compared (the injected
    /// stale-cache bug).
    pub(crate) fn refresh(&mut self, view: &[TxView], validate_history: bool) {
        let shared_ok = if validate_history {
            view.len() >= self.prefix.len() && view[..self.prefix.len()] == self.prefix[..]
        } else {
            view.len() >= self.prefix.len()
        };
        if !shared_ok {
            self.rebuild(view);
        } else {
            // Incremental extension: appending `t` raises the weight of
            // exactly past(t) by one; the rating of `t` is |past(t)|.
            for i in self.prefix.len()..view.len() {
                let mut seen = vec![false; i];
                let mut stack: Vec<usize> = view[i].parents.iter().map(|&p| p as usize).collect();
                while let Some(x) = stack.pop() {
                    if x < seen.len() && !seen[x] {
                        seen[x] = true;
                        stack.extend(view[x].parents.iter().map(|&p| p as usize));
                    }
                }
                let past = seen.iter().filter(|&&s| s).count() as u32;
                self.weights.push(1);
                self.ratings.push(past);
                for (a, &inside) in seen.iter().enumerate() {
                    if inside {
                        self.weights[a] += 1;
                    }
                }
            }
        }
        self.prefix = view.to_vec();
    }
}

/// A deterministic stub-trainer closed loop: the protocol with the
/// machine learning replaced by a scalar "quality" per transaction.
///
/// Honest nodes pick the best current tips by quality (the stub analogue
/// of tip validation), average them, improve deterministically, and face
/// the same publish gate (`better than the reference`); malicious nodes
/// always publish quality-zero transactions approving the best tips they
/// can see. Protocol-level properties — like poisoning starvation
/// (§III-E) — must hold in this model *and* in the real executors.
pub struct StubSim {
    views: Vec<TxView>,
    quality: Vec<f64>,
    malicious: Vec<bool>,
    num_tips: usize,
    round: u64,
}

impl StubSim {
    /// A population of `nodes` stub trainers, the listed ones malicious,
    /// approving `num_tips` parents per publication.
    pub fn new(nodes: usize, malicious: &[usize], num_tips: usize) -> Self {
        let mut flags = vec![false; nodes];
        for &m in malicious {
            flags[m] = true;
        }
        Self {
            views: vec![TxView {
                id: 0,
                issuer: u64::MAX,
                round: 0,
                parents: vec![],
            }],
            quality: vec![0.5],
            malicious: flags,
            num_tips: num_tips.max(1),
            round: 0,
        }
    }

    /// The ledger structure grown so far.
    pub fn views(&self) -> &[TxView] {
        &self.views
    }

    fn tips(&self) -> Vec<u32> {
        StructModel::new(&self.views)
            .expect("stub ledger is well-formed by construction")
            .tips()
    }

    /// Best `num_tips` distinct tips by quality (descending), ties toward
    /// lower id — the stub's tip validation.
    fn select_parents(&self, tips: &[u32]) -> Vec<u32> {
        let mut ranked: Vec<u32> = tips.to_vec();
        ranked.sort_by(|&a, &b| {
            self.quality[b as usize]
                .partial_cmp(&self.quality[a as usize])
                .expect("qualities are finite")
                .then(a.cmp(&b))
        });
        ranked.truncate(self.num_tips);
        ranked.sort_unstable();
        ranked
    }

    /// Quality of the current reference transaction (top-1 by
    /// weight-proxy confidence × rating).
    fn reference_quality(&self) -> f64 {
        let model = StructModel::new(&self.views).expect("well-formed");
        let weights = model.weights();
        let n = self.views.len() as f32;
        let confidence: Vec<f32> = weights.iter().map(|&w| w as f32 / n).collect();
        let reference = model.choose_reference(&confidence, &model.ratings(), 1)[0];
        self.quality[reference as usize]
    }

    /// One round at the barrier: every node in `idx` sees the same
    /// snapshot, publishes are appended together. Returns how many
    /// published.
    pub fn round_with_nodes(&mut self, idx: &[usize]) -> usize {
        self.round += 1;
        let tips = self.tips();
        let q_ref = self.reference_quality();
        let mut staged: Vec<(usize, Vec<u32>, f64)> = Vec::new();
        for &ni in idx {
            let parents = self.select_parents(&tips);
            let base: f64 = parents
                .iter()
                .map(|&p| self.quality[p as usize])
                .sum::<f64>()
                / parents.len() as f64;
            if self.malicious[ni] {
                // Poisoners always publish; their models are worthless.
                staged.push((ni, parents, 0.0));
            } else {
                let improved = base + 0.05 * (1.0 - base);
                if improved > q_ref {
                    staged.push((ni, parents, improved));
                }
            }
        }
        let published = staged.len();
        for (ni, parents, q) in staged {
            self.views.push(TxView {
                id: self.views.len() as u32,
                issuer: ni as u64,
                round: self.round,
                parents,
            });
            self.quality.push(q);
        }
        published
    }

    /// Highest tip-approval fraction over all transactions issued by
    /// malicious nodes (0.0 if they never published).
    pub fn max_malicious_approval(&self) -> f64 {
        let approval = StructModel::new(&self.views)
            .expect("well-formed")
            .uniform_tip_approval();
        self.views
            .iter()
            .zip(&approval)
            .filter(|(v, _)| v.issuer != u64::MAX && self.malicious[v.issuer as usize])
            .map(|(_, &a)| a)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::tangle_from_script;

    #[test]
    fn naive_model_matches_real_dps_on_scripted_tangles() {
        let t = tangle_from_script(&[(0, 0), (0, 1), (1, 2), (0, 3), (2, 3)]);
        let views = t.structure();
        let model = StructModel::new(&views).unwrap();
        assert_eq!(
            model.weights(),
            tangle_ledger::analysis::cumulative_weights(&t)
        );
        assert_eq!(model.ratings(), tangle_ledger::analysis::ratings(&t));
        assert_eq!(model.depths(), tangle_ledger::analysis::depths(&t));
        let tips: Vec<u32> = t.tips().iter().map(|id| id.index() as u32).collect();
        assert_eq!(model.tips(), tips);
    }

    #[test]
    fn shadow_cache_tracks_appends_and_detects_divergence() {
        let t = tangle_from_script(&[(0, 0), (0, 1), (1, 2)]);
        let views = t.structure();
        let mut cache = ShadowCache::new();
        cache.refresh(&views[..2], true);
        cache.refresh(&views, true);
        assert_eq!(cache.rebuilds, 0, "appends extend incrementally");
        assert_eq!(
            cache.weights(),
            tangle_ledger::analysis::cumulative_weights(&t)
        );
        // Diverge the history: same length, different content.
        let mut forked = views.clone();
        forked[1].parents = vec![0];
        forked[1].issuer = 9;
        cache.refresh(&forked, true);
        assert_eq!(cache.rebuilds, 1, "history validation must force a rebuild");
    }

    #[test]
    fn stub_sim_starves_poisoners() {
        let mut sim = StubSim::new(6, &[4, 5], 2);
        for r in 0..12 {
            sim.round_with_nodes(&[r % 6, (r + 1) % 6, (r + 2) % 6]);
        }
        assert!(sim.views().len() > 10, "stub trainers must keep publishing");
        assert!(
            sim.max_malicious_approval() < 0.9,
            "quality-zero publications must never approach confirmation: {}",
            sim.max_malicious_approval()
        );
    }
}
