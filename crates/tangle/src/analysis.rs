//! Consensus analysis: cumulative weights, ratings, confidence, and the
//! paper's Algorithm 1 reference selection.
//!
//! *Rating* follows the paper's definition — "the number of other
//! transactions that [a transaction] directly or indirectly approves", i.e.
//! its past-cone size, with every transaction contributing equally (the
//! prototype ignores IOTA's PoW-weighted own weights).
//!
//! *Confidence* is what the paper's Monte-Carlo procedure estimates —
//! "running the tip selection multiple times, thereby counting how often a
//! given transaction is hit during the random walk", normalized by the
//! number of sampling rounds — computed exactly: the chance that a walk
//! from the genesis passes through the transaction. It is a property of
//! the walk, so it lives on the snapshot's
//! [`WalkTable`](crate::walk::WalkTable::confidence).
//!
//! Weights, ratings and depths have one producer for a ledger that grows:
//! [`AnalysisCache`], which every round context, tip draw and consensus
//! evaluation reads. The batch DPs ([`cumulative_weights`], [`ratings`],
//! [`depths`], [`TangleAnalysis::compute`]) serve what a cache that follows
//! the ledger head cannot: an older prefix (the simulator's delayed
//! network). Everywhere else they are the ground truth that tests and the
//! conformance explorer check the cache against.

use crate::bitset::BitSet;
use crate::graph::{Tangle, TxId};
use crate::view::TangleRead;
use std::collections::BTreeSet;

/// Exact cumulative weights: `w(t) = 1 + |{x : x directly or indirectly
/// approves t}|` (own weight plus distinct approvers), computed by a
/// reverse-topological bitset DP.
pub fn cumulative_weights<T: TangleRead>(tangle: &T) -> Vec<u32> {
    let n = tangle.len();
    let mut future: Vec<Option<BitSet>> = vec![None; n];
    let mut out = vec![0u32; n];
    // Ids are topological, so children always have larger ids: sweep down.
    for i in (0..n).rev() {
        let id = TxId(i as u32);
        let mut set = BitSet::new(n);
        for &child in tangle.approvers(id) {
            set.insert(child.index());
            set.union_with(
                future[child.index()]
                    .as_ref()
                    .expect("children processed before parents"),
            );
        }
        out[i] = 1 + set.count() as u32;
        future[i] = Some(set);
    }
    out
}

/// Exact ratings: `r(t) = |past cone of t|` (the genesis has rating 0),
/// computed by a forward-topological bitset DP.
pub fn ratings<T: TangleRead>(tangle: &T) -> Vec<u32> {
    let n = tangle.len();
    let mut past: Vec<BitSet> = Vec::with_capacity(n);
    let mut out = vec![0u32; n];
    for (i, tx) in tangle.transactions().iter().enumerate() {
        let mut set = BitSet::new(n);
        for &p in &tx.parents {
            set.insert(p.index());
            let parent_set = &past[p.index()];
            set.union_with(parent_set);
        }
        out[i] = set.count() as u32;
        past.push(set);
    }
    out
}

/// Why an [`AnalysisCache`] refused to advance against a tangle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheError {
    /// `on_add` was called with an id that is not the next transaction
    /// after the ones already tracked (skipped or out-of-order append).
    OutOfOrder {
        /// The id the cache expected to see next.
        expected: u32,
        /// The id it was given.
        got: u32,
    },
    /// The tangle holds fewer transactions than the cache tracks — the
    /// cache was built over a longer (or different) history.
    TangleTooShort {
        /// Transactions tracked by the cache.
        cached: usize,
        /// Transactions in the presented tangle.
        tangle: usize,
    },
    /// The tangle's history up to the cache's frontier does not match
    /// what the cache advanced over — it is a *different* history (e.g. a
    /// replica restored from an older checkpoint and regrown along
    /// another branch, possibly diverging only in its interior).
    HistoryMismatch {
        /// The cache frontier at which the divergence was detected.
        at: u32,
    },
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::OutOfOrder { expected, got } => {
                write!(f, "out-of-order append: expected tx{expected}, got tx{got}")
            }
            CacheError::TangleTooShort { cached, tangle } => {
                write!(f, "cache tracks {cached} txs but tangle holds {tangle}")
            }
            CacheError::HistoryMismatch { at } => {
                write!(f, "tangle history diverges from the cache at tx{at}")
            }
        }
    }
}

impl std::error::Error for CacheError {}

/// How an [`AnalysisCache::refresh`] brought the cache up to date.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefreshOutcome {
    /// The cache already matched the tangle; nothing to do.
    Fresh,
    /// The tangle extended the cached history; the delta was applied
    /// incrementally (`.0` = transactions appended).
    Extended(usize),
    /// Validation failed (shorter or diverged history); the cache was
    /// rebuilt from the genesis.
    Rebuilt,
}

/// Incrementally maintained tangle analysis: cumulative weights, ratings,
/// depths, and the tip set, kept equal to the from-scratch
/// [`cumulative_weights`] / [`ratings`] / [`depths`] / `Tangle::tips` at
/// all times (pinned by the differential property tests).
///
/// Appending transaction `t`:
/// * adds one distinct approver to exactly the members of `t`'s past cone
///   (weights `+1` over the cone, `t` itself starts at its own weight 1);
/// * gives `t` a rating equal to its past-cone size and changes nobody
///   else's rating (past cones of existing transactions are immutable);
/// * can only *deepen* ancestors, and only along paths where the longest
///   approval path actually grows;
/// * removes `t`'s parents from the tip set and inserts `t`.
///
/// The tables advance in chunks of up to 64 appended transactions, one
/// bit lane of a `u64` each: a single descending-id pass per chunk pushes
/// "which chunk members have me in their past cone" masks and depth
/// offers from children to parents (ids are topological, so every node
/// is visited once, after all its chunk-side descendants). A chunk
/// therefore costs `O(V + E)` whatever its size — not one `O(|past
/// cone|)` walk per append, which in a steady-state tangle is `O(V)`
/// each — and a build from scratch is the same sweep from the genesis
/// row, with `O(V)` scratch instead of the batch DPs' `O(V²/64)` bitsets
/// (`benchmark/` times both: `tangle.analysis.refresh_us_per_append` and
/// `tangle.analysis.full_ms`).
///
/// The cache *validates* instead of trusting: [`AnalysisCache::on_add`]
/// returns [`CacheError`] on skipped or out-of-order ids, and
/// [`AnalysisCache::refresh`] checks the chained whole-history signature
/// so a shorter or diverged tangle (checkpoint restore, repair regrowth
/// in a different order) triggers a counted rebuild rather than silently
/// stale values.
#[derive(Clone)]
pub struct AnalysisCache {
    weights: Vec<u32>,
    ratings: Vec<u32>,
    depths: Vec<u32>,
    tips: BTreeSet<TxId>,
    /// Chained signature of the *entire* tracked history (equal to
    /// `Tangle::history_sig(self.len())` of the tangle it follows). A
    /// tail-only signature would let a same-length history that diverges
    /// in its interior — a gossip replica regrown in a different arrival
    /// order after an empty restart — slip through validation; the
    /// conformance harness's schedule exploration found exactly that.
    hist_sig: u64,
    /// Sweep scratch, all zero between sweeps (no per-refresh alloc):
    /// per node, the lanes of the current chunk that approve it …
    mask: Vec<u64>,
    /// … and the deepest `depth + 1` offered by its chunk-side children.
    offer: Vec<u32>,
}

/// Appended transactions per sweep: one bit lane of a `u64` mask each.
const LANES: usize = u64::BITS as usize;

impl AnalysisCache {
    /// Build a cache over an existing tangle: the genesis row, swept
    /// forward over the whole history.
    pub fn new<T: TangleRead>(tangle: &T) -> Self {
        let mut cache = Self {
            weights: vec![1],
            ratings: vec![0],
            depths: vec![0],
            tips: BTreeSet::from([tangle.genesis()]),
            hist_sig: tangle.history_sig(1),
            mask: vec![0],
            offer: vec![0],
        };
        cache.sweep(tangle, tangle.len());
        cache
    }

    /// Transactions tracked by the cache.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Always `false`: a cache tracks at least the genesis.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Cumulative weights, aligned with transaction ids (equal to
    /// [`cumulative_weights`]).
    pub fn weights(&self) -> &[u32] {
        &self.weights
    }

    /// Ratings (past-cone sizes), equal to [`ratings`].
    pub fn ratings(&self) -> &[u32] {
        &self.ratings
    }

    /// Depths (longest approval path from any tip), equal to [`depths`].
    pub fn depths(&self) -> &[u32] {
        &self.depths
    }

    /// Current tips in ascending id order, equal to `Tangle::tips`.
    pub fn tips(&self) -> Vec<TxId> {
        self.tips.iter().copied().collect()
    }

    /// Snapshot the cached weights/ratings into a [`TangleAnalysis`]
    /// (an `O(V)` copy instead of the `O(V²/64)` recompute).
    pub fn analysis(&self) -> TangleAnalysis {
        TangleAnalysis {
            cumulative_weight: self.weights.clone(),
            rating: self.ratings.clone(),
        }
    }

    /// Check that `tangle` extends the history this cache tracks: it must
    /// be at least as long, and its first `self.len()` transactions must
    /// be exactly the ones the cache advanced over (whole-history chained
    /// signature, not just the frontier — an interior divergence of a
    /// same-length replica must not slip through). A shorter or diverged
    /// tangle is an error — never silently-stale values.
    pub fn validate<T: TangleRead>(&self, tangle: &T) -> Result<(), CacheError> {
        let n = self.len();
        if tangle.len() < n {
            return Err(CacheError::TangleTooShort {
                cached: n,
                tangle: tangle.len(),
            });
        }
        if tangle.history_sig(n) != self.hist_sig {
            return Err(CacheError::HistoryMismatch { at: (n - 1) as u32 });
        }
        Ok(())
    }

    /// Record the transaction just appended. `id` must be exactly the next
    /// transaction after the ones already tracked and must exist in
    /// `tangle`; anything else returns a [`CacheError`] and leaves the
    /// cache untouched.
    pub fn on_add<T: TangleRead>(&mut self, tangle: &T, id: TxId) -> Result<(), CacheError> {
        let n = self.len();
        if id.index() != n {
            return Err(CacheError::OutOfOrder {
                expected: n as u32,
                got: id.0,
            });
        }
        if !tangle.contains(id) {
            return Err(CacheError::TangleTooShort {
                cached: n,
                tangle: tangle.len(),
            });
        }
        self.sweep(tangle, n + 1);
        Ok(())
    }

    /// Advance every table from `self.len()` to the first `upto`
    /// transactions of `tangle`, which the caller has validated to extend
    /// the tracked history. The only writer of `weights` / `ratings` /
    /// `depths`.
    fn sweep<T: TangleRead>(&mut self, tangle: &T, upto: usize) {
        let txs = &tangle.transactions()[..upto];
        while self.len() < upto {
            let lo = self.len();
            let hi = upto.min(lo + LANES);
            let all_lanes = u64::MAX >> (LANES - (hi - lo));
            self.weights.resize(hi, 1); // own weight
            self.depths.resize(hi, 0); // deepened below if approved in-chunk
            self.mask.resize(hi, 0);
            self.offer.resize(hi, 0);
            // Past-cone sizes per lane; ancestors of the whole chunk (the
            // deep ledger, in steady state) are counted once in `shared`.
            let mut cone = [0u32; LANES];
            let mut shared = 0u32;
            for i in (0..hi).rev() {
                let approving = std::mem::take(&mut self.mask[i]);
                let offered = std::mem::take(&mut self.offer[i]);
                let own_lane = if i >= lo { 1u64 << (i - lo) } else { 0 };
                let pushed = approving | own_lane;
                if pushed == 0 {
                    continue; // outside every chunk member's past cone
                }
                self.weights[i] += approving.count_ones();
                if approving == all_lanes {
                    shared += 1;
                } else {
                    let mut lanes = approving;
                    while lanes != 0 {
                        cone[lanes.trailing_zeros() as usize] += 1;
                        lanes &= lanes - 1;
                    }
                }
                // A node passes a depth on only if it is new or got deeper:
                // elsewhere its parents already account for it.
                let deepened = offered > self.depths[i];
                if deepened {
                    self.depths[i] = offered;
                }
                let pass_depth = deepened || own_lane != 0;
                for p in &txs[i].parents {
                    self.mask[p.index()] |= pushed;
                    if pass_depth {
                        let o = &mut self.offer[p.index()];
                        *o = (*o).max(self.depths[i] + 1);
                    }
                }
            }
            for (tx, own) in txs[lo..hi].iter().zip(cone) {
                self.ratings.push(own + shared);
                for p in &tx.parents {
                    self.tips.remove(p);
                }
                self.tips.insert(tx.id);
                self.hist_sig = crate::graph::chain_sig(self.hist_sig, tx.id.0, &tx.parents);
            }
        }
        debug_assert!(
            self.mask.iter().all(|&m| m == 0) && self.offer.iter().all(|&o| o == 0),
            "sweep scratch must be consumed"
        );
    }

    /// Bring the cache up to date with `tangle`: validate, then sweep the
    /// appended suffix in — or rebuild from the genesis when the tangle is
    /// shorter than, or diverged from, the cached history.
    pub fn refresh<T: TangleRead>(&mut self, tangle: &T) -> RefreshOutcome {
        if self.validate(tangle).is_err() {
            *self = Self::new(tangle);
            return RefreshOutcome::Rebuilt;
        }
        let missing = tangle.len() - self.len();
        self.sweep(tangle, tangle.len());
        if missing == 0 {
            RefreshOutcome::Fresh
        } else {
            RefreshOutcome::Extended(missing)
        }
    }

    /// Like [`Self::refresh`], additionally surfacing the outcome through
    /// `telemetry`: `tangle.cache_hits` counts refreshes served from the
    /// cache (fresh or incrementally extended, with appended transactions
    /// under `tangle.cache_appends`), `tangle.cache_rebuilds` counts full
    /// rebuilds. All counters are no-ops on a disabled handle.
    pub fn refresh_observed<T: TangleRead>(
        &mut self,
        tangle: &T,
        telemetry: &lt_telemetry::Telemetry,
    ) -> RefreshOutcome {
        let outcome = self.refresh(tangle);
        match outcome {
            RefreshOutcome::Rebuilt => telemetry.count("tangle.cache_rebuilds", 1),
            RefreshOutcome::Fresh => telemetry.count("tangle.cache_hits", 1),
            RefreshOutcome::Extended(n) => {
                telemetry.count("tangle.cache_hits", 1);
                telemetry.count("tangle.cache_appends", n as u64);
            }
        }
        outcome
    }
}

/// Depth of every transaction: the length of the *longest* approval path
/// from any tip down to it (tips have depth 0, the genesis is deepest).
/// Used by windowed tip selection to pick walk entry points "reasonably
/// deep within the tangle" without walking from the genesis every time.
pub fn depths<T: TangleRead>(tangle: &T) -> Vec<u32> {
    let n = tangle.len();
    let mut out = vec![0u32; n];
    // Children have larger ids; sweep down so every approver is done first.
    for i in (0..n).rev() {
        let id = TxId(i as u32);
        let approvers = tangle.approvers(id);
        out[i] = approvers
            .iter()
            .map(|a| out[a.index()] + 1)
            .max()
            .unwrap_or(0);
    }
    out
}

/// Classification of each transaction for visualization (the paper's
/// Fig. 2 coloring).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxClass {
    /// The genesis transaction (black in Fig. 2).
    Genesis,
    /// Approved by every current tip — part of the consensus (dark gray).
    Confirmed,
    /// A current tip (light gray).
    Tip,
    /// Neither a tip nor approved by all tips (white).
    Pending,
}

/// A per-tangle-snapshot view bundling the derived quantities that both the
/// learning algorithms and the analysis tooling need.
pub struct TangleAnalysis {
    /// Cumulative weight per transaction (see [`cumulative_weights`]).
    pub cumulative_weight: Vec<u32>,
    /// Rating per transaction (see [`ratings`]).
    pub rating: Vec<u32>,
}

impl TangleAnalysis {
    /// Compute both DP passes for the current tangle snapshot.
    pub fn compute<T>(tangle: &T) -> Self
    where
        T: TangleRead + Sync,
    {
        // The two DPs are independent — run them in parallel.
        let (cumulative_weight, rating) =
            rayon::join(|| cumulative_weights(tangle), || ratings(tangle));
        Self {
            cumulative_weight,
            rating,
        }
    }

    /// Like [`Self::compute`], wrapped in a `tangle.analysis_us` span so
    /// the weight/rating DP cost shows up in telemetry.
    pub fn compute_observed<T>(tangle: &T, telemetry: &lt_telemetry::Telemetry) -> Self
    where
        T: TangleRead + Sync,
    {
        let _span = telemetry.span("tangle.analysis_us");
        Self::compute(tangle)
    }

    /// Algorithm 1 (generalized to the top `n`): rank transactions by
    /// `confidence(t) × rating(t)` descending and return the best `n` ids.
    ///
    /// Ties break toward newer transactions (higher id), which keeps the
    /// selection stable and favors fresher models. The order is total, so
    /// selecting the best `n` and sorting only those returns exactly the
    /// first `n` of a full sort, in O(V + n log n).
    ///
    /// # Panics
    /// Panics if a score is NaN.
    pub fn choose_reference(&self, confidence: &[f32], n: usize) -> Vec<TxId> {
        assert_eq!(confidence.len(), self.rating.len());
        let mut scored: Vec<(f64, u32)> = confidence
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let score = c as f64 * self.rating[i] as f64;
                assert!(!score.is_nan(), "scores are finite");
                (score, i as u32)
            })
            .collect();
        let rank = |a: &(f64, u32), b: &(f64, u32)| {
            b.0.partial_cmp(&a.0)
                .expect("scores are finite")
                .then(b.1.cmp(&a.1))
        };
        if n < scored.len() {
            if n > 0 {
                scored.select_nth_unstable_by(n - 1, rank);
            }
            scored.truncate(n);
        }
        scored.sort_unstable_by(rank);
        scored.into_iter().map(|(_, i)| TxId(i)).collect()
    }
}

/// Fig. 2 view: classify every transaction relative to the current tips.
pub struct ConsensusView {
    /// Per-transaction classification.
    pub classes: Vec<TxClass>,
}

impl ConsensusView {
    /// Compute the classification: a transaction is *confirmed* iff every
    /// current tip (directly or indirectly) approves it.
    pub fn compute<P>(tangle: &Tangle<P>) -> Self {
        let n = tangle.len();
        let tips = tangle.tips();
        // Count, per transaction, how many tips reach it: union of per-tip
        // past cones with a counting sweep. Reuse the forward past-cone DP
        // but accumulate per-tip hit counts instead of keeping all sets.
        let mut count = vec![0u32; n];
        for &tip in &tips {
            count[tip.index()] += 1; // a tip trivially "reaches" itself
            for a in tangle.past_cone(tip) {
                count[a.index()] += 1;
            }
        }
        let t = tips.len() as u32;
        let classes = (0..n)
            .map(|i| {
                let id = TxId(i as u32);
                if id == tangle.genesis() {
                    TxClass::Genesis
                } else if tangle.is_tip(id) {
                    TxClass::Tip
                } else if count[i] == t {
                    TxClass::Confirmed
                } else {
                    TxClass::Pending
                }
            })
            .collect();
        Self { classes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// genesis -> a, b; c -> (a,b); d -> (c); e -> (b)   tips: d, e
    fn sample() -> (Tangle<u8>, [TxId; 5]) {
        let mut t = Tangle::new(0u8);
        let g = t.genesis();
        let a = t.add(1, vec![g]).unwrap();
        let b = t.add(2, vec![g]).unwrap();
        let c = t.add(3, vec![a, b]).unwrap();
        let d = t.add(4, vec![c]).unwrap();
        let e = t.add(5, vec![b]).unwrap();
        (t, [a, b, c, d, e])
    }

    #[test]
    fn cumulative_weights_exact() {
        let (t, [a, b, c, d, e]) = sample();
        let w = cumulative_weights(&t);
        assert_eq!(w[t.genesis().index()], 6); // everyone approves genesis
        assert_eq!(w[a.index()], 3); // a, c, d
        assert_eq!(w[b.index()], 4); // b, c, d, e
        assert_eq!(w[c.index()], 2); // c, d
        assert_eq!(w[d.index()], 1);
        assert_eq!(w[e.index()], 1);
    }

    #[test]
    fn ratings_exact() {
        let (t, [a, b, c, d, e]) = sample();
        let r = ratings(&t);
        assert_eq!(r[t.genesis().index()], 0);
        assert_eq!(r[a.index()], 1);
        assert_eq!(r[b.index()], 1);
        assert_eq!(r[c.index()], 3); // a, b, genesis
        assert_eq!(r[d.index()], 4); // c, a, b, genesis
        assert_eq!(r[e.index()], 2); // b, genesis
    }

    #[test]
    fn diamond_counts_distinct_not_paths() {
        // genesis -> a, b; c approves both: genesis must count c once.
        let mut t = Tangle::new(0u8);
        let g = t.genesis();
        let a = t.add(1, vec![g]).unwrap();
        let b = t.add(2, vec![g]).unwrap();
        let c = t.add(3, vec![a, b]).unwrap();
        let w = cumulative_weights(&t);
        assert_eq!(w[g.index()], 4);
        let r = ratings(&t);
        assert_eq!(r[c.index()], 3);
    }

    #[test]
    #[should_panic(expected = "scores are finite")]
    fn choose_reference_rejects_nan_scores() {
        let (t, _) = sample();
        let mut conf = vec![0.5f32; t.len()];
        conf[3] = f32::NAN;
        TangleAnalysis::compute(&t).choose_reference(&conf, 1);
    }

    #[test]
    fn choose_reference_prefers_high_conf_times_rating() {
        let (t, [_, _, c, _, _]) = sample();
        let analysis = TangleAnalysis::compute(&t);
        // Hand-crafted confidence: c is confidently on the main path.
        let mut conf = vec![0.1f32; t.len()];
        conf[t.genesis().index()] = 1.0;
        conf[c.index()] = 0.9;
        let top = analysis.choose_reference(&conf, 2);
        assert_eq!(top[0], c); // 0.9 * 3 = 2.7, genesis = 1.0 * 0 = 0
        assert_eq!(top.len(), 2);
    }

    #[test]
    fn choose_reference_on_genesis_only_tangle() {
        let t = Tangle::new(0u8);
        let analysis = TangleAnalysis::compute(&t);
        let top = analysis.choose_reference(&[1.0], 3);
        assert_eq!(top, vec![t.genesis()]);
    }

    #[test]
    fn analysis_cache_tracks_all_batch_dps() {
        let mut t = Tangle::new(0u8);
        let mut cache = AnalysisCache::new(&t);
        let g = t.genesis();
        let a = t.add(1, vec![g]).unwrap();
        cache.on_add(&t, a).unwrap();
        let b = t.add(2, vec![g]).unwrap();
        cache.on_add(&t, b).unwrap();
        let c = t.add(3, vec![a, b]).unwrap();
        cache.on_add(&t, c).unwrap();
        let d = t.add(4, vec![c, b]).unwrap();
        cache.on_add(&t, d).unwrap();
        assert_eq!(cache.weights(), cumulative_weights(&t).as_slice());
        assert_eq!(cache.ratings(), ratings(&t).as_slice());
        assert_eq!(cache.depths(), depths(&t).as_slice());
        assert_eq!(cache.tips(), t.tips());
        assert!(cache.validate(&t).is_ok());
    }

    #[test]
    fn analysis_cache_snapshot_equals_fresh_analysis() {
        let (t, _) = sample();
        let cache = AnalysisCache::new(&t);
        let fresh = TangleAnalysis::compute(&t);
        let cached = cache.analysis();
        assert_eq!(cached.cumulative_weight, fresh.cumulative_weight);
        assert_eq!(cached.rating, fresh.rating);
    }

    #[test]
    fn analysis_cache_rejects_out_of_order_adds() {
        let mut t = Tangle::new(0u8);
        let mut cache = AnalysisCache::new(&t);
        let a = t.add(1, vec![t.genesis()]).unwrap();
        let b = t.add(2, vec![a]).unwrap();
        let before = (cache.weights().to_vec(), cache.tips());
        assert_eq!(
            cache.on_add(&t, b),
            Err(CacheError::OutOfOrder {
                expected: 1,
                got: 2
            })
        );
        // A rejected add leaves the cache untouched.
        assert_eq!((cache.weights().to_vec(), cache.tips()), before);
    }

    #[test]
    fn analysis_cache_rejects_missing_tx() {
        let t = Tangle::new(0u8);
        let mut cache = AnalysisCache::new(&t);
        assert_eq!(
            cache.on_add(&t, TxId(1)),
            Err(CacheError::TangleTooShort {
                cached: 1,
                tangle: 1
            })
        );
    }

    #[test]
    fn analysis_cache_refresh_catches_up_incrementally() {
        let (mut t, _) = sample();
        let mut cache = AnalysisCache::new(&t);
        assert_eq!(cache.refresh(&t), RefreshOutcome::Fresh);
        let tips = t.tips();
        t.add(9, vec![tips[0], tips[1]]).unwrap();
        t.add(10, vec![t.tips()[0]]).unwrap();
        assert_eq!(cache.refresh(&t), RefreshOutcome::Extended(2));
        assert_eq!(cache.weights(), cumulative_weights(&t).as_slice());
        assert_eq!(cache.ratings(), ratings(&t).as_slice());
        assert_eq!(cache.depths(), depths(&t).as_slice());
        assert_eq!(cache.tips(), t.tips());
    }

    /// Append `k` transactions, each approving two draws from the *whole*
    /// history so far — members of one chunk approve each other, and every
    /// fifth draws a duplicate pair `[a, a]`.
    fn grow(t: &mut Tangle<u32>, rng: &mut rand::rngs::SmallRng, k: usize) {
        use rand::RngExt as _;
        for _ in 0..k {
            let n = t.len() as u32;
            let a = TxId(rng.random_range(0..n));
            let b = if n.is_multiple_of(5) {
                a
            } else {
                TxId(rng.random_range(0..n))
            };
            t.add(n, vec![a, b]).unwrap();
        }
    }

    fn assert_matches_batch<T: TangleRead>(cache: &AnalysisCache, t: &T, what: &str) {
        assert_eq!(cache.weights(), cumulative_weights(t).as_slice(), "{what}");
        assert_eq!(cache.ratings(), ratings(t).as_slice(), "{what}");
        assert_eq!(cache.depths(), depths(t).as_slice(), "{what}");
        assert_eq!(cache.tips(), t.tips(), "{what}");
        assert_eq!(cache.validate(t), Ok(()), "{what}");
    }

    #[test]
    fn analysis_cache_sweeps_exact_lane_boundaries() {
        use rand::SeedableRng;
        for k in [63usize, 64, 65, 128, 129] {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(k as u64);
            let mut t = Tangle::new(0u32);
            grow(&mut t, &mut rng, 40);
            let mut cache = AnalysisCache::new(&t);
            grow(&mut t, &mut rng, k);
            assert_eq!(cache.refresh(&t), RefreshOutcome::Extended(k));
            assert_matches_batch(&cache, &t, &format!("{k} appended"));
        }
    }

    #[test]
    fn analysis_cache_sweeps_a_chain_and_a_star_across_lanes() {
        // The two extremes of lane sharing: in a chain every chunk member
        // approves all earlier ones (depth grows by one per lane), in a
        // star none approves another (only the genesis is shared).
        let mut chain = Tangle::new(0u32);
        let mut star = Tangle::new(0u32);
        let mut chain_cache = AnalysisCache::new(&chain);
        let mut star_cache = AnalysisCache::new(&star);
        for i in 1..=130u32 {
            chain.add(i, vec![TxId(i - 1)]).unwrap();
            star.add(i, vec![TxId(0)]).unwrap();
        }
        chain_cache.refresh(&chain);
        star_cache.refresh(&star);
        assert_matches_batch(&chain_cache, &chain, "chain");
        assert_matches_batch(&star_cache, &star, "star");
        assert_eq!(chain_cache.depths()[0], 130);
        assert_eq!(star_cache.depths()[0], 1);
    }

    #[test]
    fn analysis_cache_refreshes_against_a_view_prefix() {
        use crate::view::TangleView;
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(17);
        let mut t = Tangle::new(0u32);
        grow(&mut t, &mut rng, 299);
        let mut cache = AnalysisCache::new(&TangleView::new(&t, 30));
        for len in [30usize, 100, 101, 230, 300] {
            let view = TangleView::new(&t, len);
            let appended = len - cache.len();
            let expected = if appended == 0 {
                RefreshOutcome::Fresh
            } else {
                RefreshOutcome::Extended(appended)
            };
            assert_eq!(cache.refresh(&view), expected);
            assert_matches_batch(&cache, &view, &format!("view of {len}"));
        }
        // A view shorter than the cache is a rebuild, like any stale history.
        assert_eq!(
            cache.refresh(&TangleView::new(&t, 70)),
            RefreshOutcome::Rebuilt
        );
        assert_matches_batch(&cache, &TangleView::new(&t, 70), "rebuilt at 70");
    }

    #[test]
    fn analysis_cache_new_equals_a_genesis_cache_refreshed() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(29);
        let mut t = Tangle::new(0u32);
        let mut grown = AnalysisCache::new(&t);
        grow(&mut t, &mut rng, 200);
        grown.refresh(&t);
        let built = AnalysisCache::new(&t);
        assert_eq!(built.weights, grown.weights);
        assert_eq!(built.ratings, grown.ratings);
        assert_eq!(built.depths, grown.depths);
        assert_eq!(built.tips, grown.tips);
        assert_eq!(built.hist_sig, grown.hist_sig);
        assert_matches_batch(&built, &t, "built");
    }

    #[test]
    fn analysis_cache_rebuilds_on_shorter_tangle() {
        let (t, _) = sample();
        let cache = AnalysisCache::new(&t);
        let shorter = Tangle::new(0u8);
        assert_eq!(
            cache.validate(&shorter),
            Err(CacheError::TangleTooShort {
                cached: 6,
                tangle: 1
            })
        );
        let mut cache = cache;
        assert_eq!(cache.refresh(&shorter), RefreshOutcome::Rebuilt);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.weights(), cumulative_weights(&shorter).as_slice());
    }

    #[test]
    fn analysis_cache_rebuilds_on_diverged_history() {
        // Two same-length histories that differ in the last tx's parents:
        // the frontier signature must catch the divergence.
        let mut t1 = Tangle::new(0u8);
        let g = t1.genesis();
        let a = t1.add(1, vec![g]).unwrap();
        let b = t1.add(2, vec![g]).unwrap();
        let mut t2 = t1.clone();
        t1.add(3, vec![a, b]).unwrap();
        t2.add(3, vec![b]).unwrap();
        let cache = AnalysisCache::new(&t1);
        assert_eq!(
            cache.validate(&t2),
            Err(CacheError::HistoryMismatch { at: 3 })
        );
        let mut cache = cache;
        assert_eq!(cache.refresh(&t2), RefreshOutcome::Rebuilt);
        assert_eq!(cache.weights(), cumulative_weights(&t2).as_slice());
        assert_eq!(cache.tips(), t2.tips());
    }

    #[test]
    fn analysis_cache_rebuilds_on_interior_divergence() {
        // Same length AND same last-tx parents — the histories differ only
        // in their interior (tx2's parents), exactly what a gossip replica
        // looks like after an empty restart regrows it in a different
        // arrival order. A tail-only frontier signature accepted this and
        // served stale weights; found by conformance schedule exploration.
        let mut t1 = Tangle::new(0u8);
        let g = t1.genesis();
        let a = t1.add(1, vec![g]).unwrap();
        let b1 = t1.add(2, vec![g]).unwrap();
        t1.add(3, vec![a, b1]).unwrap();
        let mut t2 = Tangle::new(0u8);
        let a2 = t2.add(1, vec![g]).unwrap();
        let b2 = t2.add(2, vec![a2]).unwrap();
        t2.add(3, vec![a2, b2]).unwrap();
        assert_eq!(
            t1.get(TxId(3)).parents,
            t2.get(TxId(3)).parents,
            "the frontier transactions must be indistinguishable"
        );
        let cache = AnalysisCache::new(&t1);
        assert_eq!(
            cache.validate(&t2),
            Err(CacheError::HistoryMismatch { at: 3 })
        );
        let mut cache = cache;
        assert_eq!(cache.refresh(&t2), RefreshOutcome::Rebuilt);
        assert_eq!(cache.weights(), cumulative_weights(&t2).as_slice());
        assert_eq!(cache.ratings(), ratings(&t2).as_slice());
    }

    #[test]
    fn analysis_cache_observed_counts_hits_and_rebuilds() {
        let tel = lt_telemetry::Telemetry::new(lt_telemetry::NoopSink);
        let (mut t, _) = sample();
        let mut cache = AnalysisCache::new(&t);
        cache.refresh_observed(&t, &tel); // fresh -> hit
        let tips = t.tips();
        t.add(9, vec![tips[0]]).unwrap();
        cache.refresh_observed(&t, &tel); // extended -> hit + append
        cache.refresh_observed(&Tangle::new(0u8), &tel); // rebuild
        assert_eq!(tel.counter_value("tangle.cache_hits"), 2);
        assert_eq!(tel.counter_value("tangle.cache_rebuilds"), 1);
        assert_eq!(tel.counter_value("tangle.cache_appends"), 1);
    }

    #[test]
    fn consensus_view_matches_fig2_semantics() {
        let (t, [a, b, c, d, e]) = sample();
        let view = ConsensusView::compute(&t);
        assert_eq!(view.classes[t.genesis().index()], TxClass::Genesis);
        // tips: d, e
        assert_eq!(view.classes[d.index()], TxClass::Tip);
        assert_eq!(view.classes[e.index()], TxClass::Tip);
        // b is approved by both tips (d via c, e directly) -> confirmed
        assert_eq!(view.classes[b.index()], TxClass::Confirmed);
        // a and c are only reached from d -> pending
        assert_eq!(view.classes[a.index()], TxClass::Pending);
        assert_eq!(view.classes[c.index()], TxClass::Pending);
    }
}
