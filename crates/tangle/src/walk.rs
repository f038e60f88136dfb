//! Tip-selection algorithms.
//!
//! The paper uses "the widespread algorithm of a weighted random walk from
//! the genesis transaction ... where the weights are the number of approvers
//! for a given transaction" (§II-C). [`RandomWalk`] implements the IOTA
//! MCMC walk with transition probabilities
//! `P(x→y) ∝ exp(α · (w(y) − max_z w(z)))` over the approvers `y` of the
//! current particle `x`, where `w` is the cumulative weight and `α` the
//! randomness parameter of Gal's "alpha" article cited by the paper (\[32\]).
//! `α = 0` is the unbiased walk; large `α` is greedy.
//!
//! # Rows and the transition table
//!
//! A *row* is what one step at `x` needs: the unnormalised weights
//! `exp(α · (eff(y) − max))` of `x`'s approvers, in approver order, followed
//! by their left-to-right sum (`eff` is the cumulative weight, plus the
//! caller's bias in a [`BiasedRandomWalk`]). A step draws `r` uniformly in
//! `[0, sum)` and scans the row subtracting each weight until `r` falls
//! inside one. It is a subtraction scan on purpose: a prefix-sum search or
//! an alias table rounds differently and would map some draws to another
//! approver, and the confidence estimates (§III-A) and the two one-off
//! walks are pinned draw for draw against the original step loop.
//! Transactions with a single approver are followed without a draw and
//! have no row.
//!
//! Every walk over one ledger snapshot sees the same rows, so a
//! [`WalkTable`] computes them once — one `exp` per approval edge — and the
//! confidence walks of a round read them. A table is valid only for the
//! snapshot and α it was built from; approver lists are still read from
//! the tangle. The one-off walks — [`BiasedRandomWalk`], whose bias lives
//! for a handful of walks of one node step, fewer than a build (an `exp`
//! per edge) pays for, and [`RandomWalk::select_tip_with_weights`] — have
//! no snapshot to amortise over: they fill a one-row scratch per step with
//! the same row function and draw with the same draw function.
//!
//! Nothing here computes weights or depths: the caller passes them in,
//! from an [`crate::AnalysisCache`] that follows the ledger or, for an
//! older prefix, from the batch DPs of [`crate::analysis`].
//!
//! # Tip draws from the exit distribution
//!
//! Over one snapshot the walk is a Markov chain on a DAG whose ids are
//! already in topological order (an approver is always newer than what it
//! approves), as Popov's "The Tangle" defines tip selection. So the chance
//! `h(x)` that a walk passes through `x` comes out of one ascending pass:
//! `h(genesis) = 1` (or `1/|entries|` on each window entry), and each `x`
//! pushes `h(x) · p_y / sum` to each approver `y` of its row. A walk ends
//! at tip `τ` with probability `h(τ)`. [`WalkTable`]'s build runs this pass
//! in the loop that computes the rows, and [`WalkTable::draw_tip`] draws a
//! tip with one uniform draw against the tips' cumulative mass: the same
//! distribution as a walk, in O(log tips) instead of O(depth) steps, but
//! not the same tip for the same generator.

use crate::graph::TxId;
use crate::view::TangleRead;
use rand::RngExt as _;
use rayon::prelude::*;

/// Where a step finds the row of the particle it stands on.
trait RowSource {
    /// The row of `at`, which `approvers` (at least two) approve — stored,
    /// or computed into `scratch`.
    fn row<'a>(&'a self, at: TxId, approvers: &[TxId], scratch: &'a mut Vec<f64>) -> &'a [f64];
}

/// The row arithmetic of one walk configuration: α and the effective
/// weight of a transaction. As a [`RowSource`] it computes on demand.
struct Rows<F> {
    alpha: f64,
    eff: F,
}

impl<F: Fn(TxId) -> f64> Rows<F> {
    /// # Panics
    /// Panics unless `alpha` is finite and non-negative: anything else
    /// makes some row sum NaN or infinite (`∞ · 0`, `exp` overflow).
    fn new(alpha: f64, eff: F) -> Self {
        assert!(
            alpha.is_finite() && alpha >= 0.0,
            "walk alpha must be finite and non-negative, got {alpha}"
        );
        Self { alpha, eff }
    }
}

impl<F: Fn(TxId) -> f64> RowSource for Rows<F> {
    fn row<'a>(&'a self, _: TxId, approvers: &[TxId], row: &'a mut Vec<f64>) -> &'a [f64] {
        row.clear();
        let max = approvers
            .iter()
            .map(|&a| (self.eff)(a))
            .fold(f64::NEG_INFINITY, f64::max);
        let mut total = 0.0f64;
        for &a in approvers {
            let p = (self.alpha * ((self.eff)(a) - max)).exp();
            row.push(p);
            total += p;
        }
        // The heaviest approver contributes exp(0) = 1.
        debug_assert!(total.is_finite() && total >= 1.0, "row sum {total}");
        row.push(total);
        row
    }
}

/// The walk: follow approvers from `start` until a tip, with one weighted
/// draw by the particle's row wherever it has several approvers and none
/// elsewhere, reporting every particle moved to (not `start`) to `visit`.
fn walk<T: TangleRead>(
    tangle: &T,
    start: TxId,
    rows: &impl RowSource,
    rng: &mut dyn rand::Rng,
    mut visit: impl FnMut(TxId),
) -> TxId {
    let mut scratch = Vec::new();
    let mut cur = start;
    loop {
        let approvers = tangle.approvers(cur);
        cur = match approvers.len() {
            0 => return cur,
            1 => approvers[0],
            _ => draw(approvers, rows.row(cur, approvers, &mut scratch), rng),
        };
        visit(cur);
    }
}

/// One weighted draw among `approvers` by their `row`.
fn draw(approvers: &[TxId], row: &[f64], rng: &mut dyn rand::Rng) -> TxId {
    let (total, probs) = row.split_last().expect("a row ends with its sum");
    debug_assert_eq!(probs.len(), approvers.len(), "row of another snapshot");
    let mut r = rng.random_range(0.0..*total);
    for (a, &p) in approvers.iter().zip(probs) {
        if r < p {
            return *a;
        }
        r -= p;
    }
    approvers[approvers.len() - 1]
}

/// Transactions whose depth lies in `[window, 2·window]`, ascending — the
/// entry particles of a windowed walk.
fn window_entries(depths: &[u32], window: u32) -> Vec<TxId> {
    let range = window..=window.saturating_mul(2);
    (0..depths.len())
        .filter(|&i| range.contains(&depths[i]))
        .map(|i| TxId(i as u32))
        .collect()
}

/// The transition rows of every transaction of one ledger snapshot, and
/// the walk's exit distribution over its tips (see the module docs).
/// Built by [`RandomWalk::table`] or [`WindowedWalk::table`]; valid only
/// for that snapshot.
#[derive(Debug)]
pub struct WalkTable {
    /// `rows[offsets[i]..offsets[i + 1]]` is the row of transaction `i`,
    /// empty when it has fewer than two approvers.
    offsets: Vec<u32>,
    rows: Vec<f64>,
    /// The tips a walk ends at with positive probability, ascending, and
    /// the running sum of those probabilities (`cdf[k]` covers `tips[..=k]`).
    tips: Vec<TxId>,
    cdf: Vec<f64>,
    /// Whether the table was built by a [`WindowedWalk`].
    windowed: bool,
}

impl RowSource for WalkTable {
    fn row<'a>(&'a self, at: TxId, _: &[TxId], _: &'a mut Vec<f64>) -> &'a [f64] {
        &self.rows[self.offsets[at.index()] as usize..self.offsets[at.index() + 1] as usize]
    }
}

impl WalkTable {
    /// One ascending pass over `tangle`: one row per transaction with at
    /// least two approvers and, in the same loop, the walk's pass-through
    /// mass, started on the genesis or, for a windowed walk (`entries` is
    /// `Some`), spread uniformly over the window entries (the genesis when
    /// there is none). Ids are topologically ordered, so a transaction's
    /// mass is complete when the loop reaches it.
    fn build<T: TangleRead>(tangle: &T, source: &impl RowSource, entries: Option<&[TxId]>) -> Self {
        let n = tangle.len();
        let mut offsets = Vec::with_capacity(n + 1);
        let (mut rows, mut scratch) = (Vec::new(), Vec::new());
        let mut mass = vec![0.0f64; n];
        match entries {
            Some(e) if !e.is_empty() => {
                let share = 1.0 / e.len() as f64;
                for x in e {
                    mass[x.index()] = share;
                }
            }
            _ => mass[tangle.genesis().index()] = 1.0,
        }
        let (mut tips, mut cdf, mut total) = (Vec::new(), Vec::new(), 0.0f64);
        for i in 0..n as u32 {
            offsets.push(rows.len() as u32); // range-checked once, below
            let (at, h) = (TxId(i), mass[i as usize]);
            let approvers = tangle.approvers(at);
            match approvers.len() {
                0 if h > 0.0 => {
                    total += h;
                    tips.push(at);
                    cdf.push(total);
                }
                0 => {}
                1 => mass[approvers[0].index()] += h,
                _ => {
                    let row = source.row(at, approvers, &mut scratch);
                    if h > 0.0 {
                        let (sum, probs) = row.split_last().expect("a row ends with its sum");
                        for (a, &p) in approvers.iter().zip(probs) {
                            mass[a.index()] += h * p / sum;
                        }
                    }
                    rows.extend_from_slice(row);
                }
            }
        }
        offsets.push(u32::try_from(rows.len()).expect("walk table fits u32 offsets"));
        Self {
            offsets,
            rows,
            tips,
            cdf,
            windowed: entries.is_some(),
        }
    }

    /// Whether the table was built by a [`WindowedWalk`].
    pub fn is_windowed(&self) -> bool {
        self.windowed
    }

    /// Draw the tip a tip-selection walk ends at: one uniform draw against
    /// the tips' cumulative exit mass and a binary search. Same
    /// distribution as [`Self::walk`] from the genesis (or, for a windowed
    /// table, from a uniformly drawn window entry), not the same tip per
    /// generator.
    pub fn draw_tip(&self, rng: &mut dyn rand::Rng) -> TxId {
        let total = *self.cdf.last().expect("a snapshot has a tip");
        let r = rng.random_range(0.0..total);
        self.tips[self.cdf.partition_point(|&c| c <= r)]
    }

    /// Walk over `tangle` from `start` to a tip, which is returned;
    /// `visit` sees every particle moved to (not `start`), in order.
    ///
    /// # Panics
    /// Panics if `tangle` has another length than the table's snapshot.
    pub fn walk<T: TangleRead>(
        &self,
        tangle: &T,
        start: TxId,
        rng: &mut dyn rand::Rng,
        visit: impl FnMut(TxId),
    ) -> TxId {
        let len = self.offsets.len() - 1;
        assert_eq!(len, tangle.len(), "walk table of another snapshot");
        walk(tangle, start, self, rng, visit)
    }

    /// Monte-Carlo walk-hit confidence (paper §III-A): run `samples` walks
    /// from the genesis and count, for each transaction, the fraction of
    /// walks whose particle path passed through it. The genesis always has
    /// confidence 1.
    ///
    /// Walks run in parallel with per-walk derived seeds, so the result is
    /// deterministic for a given `(tangle, table, samples, seed)`.
    pub fn walk_confidence<T>(&self, tangle: &T, samples: usize, seed: u64) -> Vec<f32>
    where
        T: TangleRead + Sync,
    {
        hit_fractions(tangle.len(), samples, seed, |rng| {
            let mut path = vec![tangle.genesis()];
            self.walk(tangle, tangle.genesis(), rng, |x| path.push(x));
            path
        })
    }

    /// IOTA-style approval confidence: sample `samples` tips by walks from
    /// the genesis and report, per transaction, the fraction of sampled
    /// tips whose past cone contains it.
    pub fn approval_confidence<T>(&self, tangle: &T, samples: usize, seed: u64) -> Vec<f32>
    where
        T: TangleRead + Sync,
    {
        hit_fractions(tangle.len(), samples, seed, |rng| {
            let tip = self.walk(tangle, tangle.genesis(), rng, |_| {});
            let mut hit = tangle.past_cone(tip);
            hit.push(tip);
            hit
        })
    }
}

/// Monte-Carlo hit fractions over `n` transactions: draw `samples` id
/// sets in parallel, sample `s` from its own generator derived from
/// `seed`, and count serially how many sets contain each id. A set lists
/// an id at most once (a walk path never revisits, a past cone is a set),
/// so the pass costs the sets' total length, not `samples × n`.
fn hit_fractions(
    n: usize,
    samples: usize,
    seed: u64,
    sample: impl Fn(&mut rand::rngs::SmallRng) -> Vec<TxId> + Sync,
) -> Vec<f32> {
    use rand::SeedableRng;
    assert!(samples > 0, "need at least one confidence sample");
    let sets: Vec<Vec<TxId>> = (0..samples)
        .into_par_iter()
        .map(|s| {
            sample(&mut rand::rngs::SmallRng::seed_from_u64(
                seed ^ (s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ))
        })
        .collect();
    let mut hits = vec![0u32; n];
    for id in sets.iter().flatten() {
        hits[id.index()] += 1;
    }
    hits.iter().map(|&h| h as f32 / samples as f32).collect()
}

/// The weighted MCMC random walk from the genesis.
#[derive(Clone, Copy, Debug)]
pub struct RandomWalk {
    /// Randomness parameter: 0 = unbiased, larger = greedier toward heavy
    /// subtangles. Must be finite and non-negative.
    pub alpha: f64,
}

impl Default for RandomWalk {
    /// `α = 0.5`, a middle ground that keeps the walk weight-following but
    /// still randomized (the paper stresses that robustness depends on this
    /// "randomness factor of the tip selection algorithm").
    fn default() -> Self {
        Self { alpha: 0.5 }
    }
}

impl RandomWalk {
    /// Construct with an explicit α.
    pub fn new(alpha: f64) -> Self {
        Self { alpha }
    }

    fn rows<'w>(&self, len: usize, weights: &'w [u32]) -> Rows<impl Fn(TxId) -> f64 + 'w> {
        assert_eq!(weights.len(), len, "weights/tangle length mismatch");
        Rows::new(self.alpha, move |a: TxId| weights[a.index()] as f64)
    }

    /// The transition table of `tangle` under its cumulative `weights`,
    /// with the exit distribution of a walk from the genesis: build it once
    /// per snapshot, run every confidence walk of that snapshot over it and
    /// draw every tip from it ([`WalkTable::draw_tip`]).
    ///
    /// # Panics
    /// Panics if α is not finite and non-negative.
    pub fn table<T: TangleRead>(&self, tangle: &T, weights: &[u32]) -> WalkTable {
        WalkTable::build(tangle, &self.rows(tangle.len(), weights), None)
    }

    /// Walk once from the genesis to a tip with precomputed cumulative
    /// weights, computing only the rows the walk visits. One-off walks
    /// only: the tips of a snapshot are drawn from its [`Self::table`].
    ///
    /// # Panics
    /// Panics if α is not finite and non-negative.
    pub fn select_tip_with_weights<T: TangleRead>(
        &self,
        tangle: &T,
        weights: &[u32],
        rng: &mut dyn rand::Rng,
    ) -> TxId {
        let rows = self.rows(tangle.len(), weights);
        walk(tangle, tangle.genesis(), &rows, rng, |_| {})
    }
}

/// Windowed tip selection: instead of walking from the genesis every time
/// (which the paper's prototype does, §IV, at the cost of scalability),
/// start the walk from a uniformly chosen transaction whose depth lies in
/// `[window, 2·window]` — the optimization the original tangle authors
/// propose and the paper defers to future work.
///
/// Falls back to the genesis when the tangle is still shallower than the
/// window.
#[derive(Clone, Copy, Debug)]
pub struct WindowedWalk {
    /// The underlying weighted walk.
    pub walk: RandomWalk,
    /// Window depth `W`: entry particles are drawn from depths `W..=2W`.
    pub window: u32,
}

impl WindowedWalk {
    /// Construct from a walk and a window depth.
    pub fn new(walk: RandomWalk, window: u32) -> Self {
        assert!(window >= 1, "window must be at least 1");
        Self { walk, window }
    }

    /// The transition table of `tangle` (see [`RandomWalk::table`]) whose
    /// exit distribution starts uniformly on the entry particles of this
    /// window, collected once from `depths` (see
    /// [`crate::analysis::depths`]).
    pub fn table<T: TangleRead>(&self, tangle: &T, weights: &[u32], depths: &[u32]) -> WalkTable {
        assert_eq!(depths.len(), tangle.len(), "depths/tangle length mismatch");
        let entries = window_entries(depths, self.window);
        WalkTable::build(
            tangle,
            &self.walk.rows(tangle.len(), weights),
            Some(&entries),
        )
    }
}

/// A weighted walk whose transition weight is `cumulative_weight + bias`,
/// where the bias is supplied per transaction by the caller — the paper's
/// §VI outlook of "introducing model performance as a bias in the weighted
/// random walk".
pub struct BiasedRandomWalk<'a> {
    /// Randomness parameter, as in [`RandomWalk`].
    pub alpha: f64,
    /// Per-transaction additive bias on the walk weight, in cumulative-
    /// weight units. Must be finite.
    pub bias: &'a [f64],
}

impl<'a> BiasedRandomWalk<'a> {
    /// Construct from α and a bias table indexed by transaction id.
    pub fn new(alpha: f64, bias: &'a [f64]) -> Self {
        Self { alpha, bias }
    }

    fn rows<'w>(&'w self, len: usize, weights: &'w [u32]) -> Rows<impl Fn(TxId) -> f64 + 'w> {
        assert_eq!(weights.len(), len, "weights/tangle length mismatch");
        assert_eq!(self.bias.len(), len, "bias/tangle length mismatch");
        Rows::new(self.alpha, move |a: TxId| {
            weights[a.index()] as f64 + self.bias[a.index()]
        })
    }

    /// Select one tip using precomputed cumulative weights plus the bias.
    pub fn select_tip_with_weights<T: TangleRead>(
        &self,
        tangle: &T,
        weights: &[u32],
        rng: &mut dyn rand::Rng,
    ) -> TxId {
        let rows = self.rows(tangle.len(), weights);
        walk(tangle, tangle.genesis(), &rows, rng, |_| {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{cumulative_weights, depths};
    use crate::graph::Tangle;
    use crate::view::TangleView;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::SmallRng {
        rand::rngs::SmallRng::seed_from_u64(seed)
    }

    /// The walk as it stood before [`WalkTable`] — max, `exp` and sum
    /// recomputed at every step, draw and scan inline — kept verbatim as
    /// the oracle every table walk and one-off walk must match draw
    /// for draw. Returns the particle path, `start` first.
    fn reference_walk<T: TangleRead>(
        tangle: &T,
        start: TxId,
        alpha: f64,
        eff: impl Fn(TxId) -> f64,
        rng: &mut dyn rand::Rng,
    ) -> Vec<TxId> {
        let mut path = vec![start];
        let mut cur = start;
        let mut probs: Vec<f64> = Vec::new();
        loop {
            let approvers = tangle.approvers(cur);
            match approvers.len() {
                0 => return path,
                1 => cur = approvers[0],
                _ => {
                    probs.clear();
                    let max_w = approvers
                        .iter()
                        .map(|&a| eff(a))
                        .fold(f64::NEG_INFINITY, f64::max);
                    let mut total = 0.0f64;
                    for &a in approvers {
                        let p = (alpha * (eff(a) - max_w)).exp();
                        probs.push(p);
                        total += p;
                    }
                    let mut r = rng.random_range(0.0..total);
                    let mut chosen = approvers[approvers.len() - 1];
                    for (a, &p) in approvers.iter().zip(&probs) {
                        if r < p {
                            chosen = *a;
                            break;
                        }
                        r -= p;
                    }
                    cur = chosen;
                }
            }
            path.push(cur);
        }
    }

    /// Entry `i` appends transaction `i + 1` approving `a` and `b` modulo
    /// the current length; equal parents (`[a, a]`) collapse to one.
    fn scripted(script: &[(u8, u8)]) -> Tangle<u32> {
        let mut t = Tangle::new(0);
        for (i, &(a, b)) in script.iter().enumerate() {
            let n = t.len() as u32;
            t.add(i as u32 + 1, vec![TxId(a as u32 % n), TxId(b as u32 % n)])
                .unwrap();
        }
        t
    }

    const ALPHAS: [f64; 5] = [0.0, 0.05, 0.5, 8.0, 1000.0];

    /// genesis -> 1, 2; 3 -> (1, 2); 4 -> (3); 5 -> (2)   tips: 4, 5
    fn confidence_table() -> (Tangle<u32>, WalkTable) {
        let t = scripted(&[(0, 0), (0, 0), (1, 2), (3, 3), (2, 2)]);
        let table = RandomWalk::default().table(&t, &cumulative_weights(&t));
        (t, table)
    }

    #[test]
    fn walk_confidence_bounds_and_genesis() {
        let (t, table) = confidence_table();
        let conf = table.walk_confidence(&t, 64, 42);
        assert_eq!(conf.len(), t.len());
        assert!((conf[t.genesis().index()] - 1.0).abs() < 1e-6);
        assert!(conf.iter().all(|&c| (0.0..=1.0).contains(&c)));
    }

    #[test]
    fn walk_confidence_is_deterministic_per_seed() {
        let (t, table) = confidence_table();
        let c1 = table.walk_confidence(&t, 32, 7);
        let c2 = table.walk_confidence(&t, 32, 7);
        assert_eq!(c1, c2);
        let c3 = table.walk_confidence(&t, 32, 8);
        assert_ne!(c1, c3);
    }

    #[test]
    fn approval_confidence_dominates_walk_confidence() {
        // Every tx on a walk path is in the reached tip's past cone, so
        // approval confidence >= walk confidence for matching seeds/samples.
        let (t, table) = confidence_table();
        let wc = table.walk_confidence(&t, 64, 9);
        let ac = table.approval_confidence(&t, 64, 9);
        for (w, a) in wc.iter().zip(&ac) {
            assert!(a >= w, "approval {a} < walk {w}");
        }
    }

    /// A table walk's path from `start` and the generator's next output
    /// (which pins the number of draws the walk consumed).
    fn table_path<T: TangleRead>(
        table: &WalkTable,
        tangle: &T,
        start: TxId,
        seed: u64,
    ) -> (Vec<TxId>, u64) {
        let mut r = rng(seed);
        let mut path = vec![start];
        table.walk(tangle, start, &mut r, |x| path.push(x));
        (path, r.random())
    }

    /// One walk over `tangle` from the genesis, three ways on equal
    /// generators: reference loop, table, one-off walk.
    fn check_draw_for_draw<T: TangleRead>(tangle: &T, alpha: f64, seed: u64) {
        let w = cumulative_weights(tangle);
        let g = tangle.genesis();
        let mut r = rng(seed);
        let path = reference_walk(tangle, g, alpha, |a| w[a.index()] as f64, &mut r);
        let next = r.random::<u64>();
        let walk = RandomWalk::new(alpha);
        let mut r = rng(seed);
        let tip = walk.select_tip_with_weights(tangle, &w, &mut r);
        assert_eq!((tip, r.random::<u64>()), (*path.last().unwrap(), next));
        assert_eq!(
            table_path(&walk.table(tangle, &w), tangle, g, seed),
            (path, next)
        );
    }

    /// A windowed table's entries against a scan of the depths, and its
    /// walk from a uniformly drawn entry (the genesis, and no draw, when
    /// there is none) against the reference loop from the same entry,
    /// draw for draw.
    fn check_windowed<T: TangleRead>(
        tangle: &T,
        alpha: f64,
        window: u32,
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let (w, d) = (cumulative_weights(tangle), depths(tangle));
        let scan: Vec<TxId> = (0..tangle.len())
            .filter(|&i| (window..=2 * window).contains(&d[i]))
            .map(|i| TxId(i as u32))
            .collect();
        prop_assert_eq!(window_entries(&d, window), scan.clone());
        let table = WindowedWalk::new(RandomWalk::new(alpha), window).table(tangle, &w, &d);
        prop_assert!(table.is_windowed());
        let entry = |r: &mut rand::rngs::SmallRng| match scan.len() {
            0 => tangle.genesis(),
            n => scan[r.random_range(0..n)],
        };
        let mut r = rng(seed);
        let start = entry(&mut r);
        let want = reference_walk(tangle, start, alpha, |a| w[a.index()] as f64, &mut r);
        let want = (want, r.random::<u64>());
        let mut r = rng(seed);
        let start = entry(&mut r);
        let mut path = vec![start];
        table.walk(tangle, start, &mut r, |x| path.push(x));
        prop_assert_eq!((path, r.random::<u64>()), want);
        Ok(())
    }

    /// The one-off biased walk against the reference loop.
    fn check_biased<T: TangleRead>(tangle: &T, alpha: f64, bias: &[f64], seed: u64) {
        let w = cumulative_weights(tangle);
        let eff = |a: TxId| w[a.index()] as f64 + bias[a.index()];
        let mut r = rng(seed);
        let want = reference_walk(tangle, tangle.genesis(), alpha, eff, &mut r);
        let want = (*want.last().unwrap(), r.random::<u64>());
        let mut r = rng(seed);
        let tip = BiasedRandomWalk::new(alpha, bias).select_tip_with_weights(tangle, &w, &mut r);
        assert_eq!((tip, r.random::<u64>()), want);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn walk_table_matches_reference_draw_for_draw(
            script in prop::collection::vec((any::<u8>(), any::<u8>()), 0..120),
            alpha in 0usize..5,
            cut in any::<usize>(),
            seed in any::<u64>(),
        ) {
            let t = scripted(&script);
            check_draw_for_draw(&t, ALPHAS[alpha], seed);
            let view = TangleView::new(&t, 1 + cut % t.len());
            check_draw_for_draw(&view, ALPHAS[alpha], seed);
        }

        #[test]
        fn walk_table_biased_matches_reference(
            script in prop::collection::vec((any::<u8>(), any::<u8>()), 0..120),
            bias in prop::collection::vec(-40.0f64..40.0, 121),
            alpha in 0usize..5,
            cut in any::<usize>(),
            seed in any::<u64>(),
        ) {
            let t = scripted(&script);
            check_biased(&t, ALPHAS[alpha], &bias[..t.len()], seed);
            let view = TangleView::new(&t, 1 + cut % t.len());
            check_biased(&view, ALPHAS[alpha], &bias[..view.len()], seed);
        }

        #[test]
        fn walk_table_windowed_matches_reference_draw_for_draw(
            script in prop::collection::vec((any::<u8>(), any::<u8>()), 0..120),
            alpha in 0usize..5,
            window in 1u32..6,
            cut in any::<usize>(),
            seed in any::<u64>(),
        ) {
            let t = scripted(&script);
            check_windowed(&t, ALPHAS[alpha], window, seed)?;
            let view = TangleView::new(&t, 1 + cut % t.len());
            check_windowed(&view, ALPHAS[alpha], window, seed)?;
        }
    }

    /// The exit distribution by an independent descending DP: `e[x][τ]` is
    /// the chance that a walk from `x` ends at tip `τ`, with `e[τ] = δ_τ`
    /// and `e[x] = Σ_y P(x→y) · e[y]`, the transition probabilities
    /// recomputed here from the weights.
    fn exit_dp<T: TangleRead>(tangle: &T, alpha: f64, w: &[u32]) -> Vec<Vec<f64>> {
        let n = tangle.len();
        let mut e = vec![vec![0.0f64; n]; n];
        for x in (0..n).rev() {
            let approvers = tangle.approvers(TxId(x as u32));
            let mut here = vec![0.0f64; n];
            if approvers.is_empty() {
                here[x] = 1.0;
            }
            let max = approvers.iter().map(|a| w[a.index()]).max().unwrap_or(0) as f64;
            let p: Vec<f64> = approvers
                .iter()
                .map(|a| (alpha * (w[a.index()] as f64 - max)).exp())
                .collect();
            let sum: f64 = p.iter().sum();
            for (a, pa) in approvers.iter().zip(&p) {
                for (h, ea) in here.iter_mut().zip(&e[a.index()]) {
                    *h += pa / sum * ea;
                }
            }
            e[x] = here;
        }
        e
    }

    /// The exit mass per transaction id that `table` draws from.
    fn exit_mass(table: &WalkTable, n: usize) -> Vec<f64> {
        let mut mass = vec![0.0f64; n];
        let mut below = 0.0;
        for (tip, &c) in table.tips.iter().zip(&table.cdf) {
            mass[tip.index()] = c - below;
            below = c;
        }
        mass
    }

    /// The plain table's and a windowed table's exit masses against the
    /// DP, to 1e-12.
    fn check_exit_masses<T: TangleRead>(
        tangle: &T,
        alpha: f64,
        window: u32,
    ) -> Result<(), TestCaseError> {
        let (w, d) = (cumulative_weights(tangle), depths(tangle));
        let e = exit_dp(tangle, alpha, &w);
        let walk = RandomWalk::new(alpha);
        let entries = window_entries(&d, window);
        let windowed: Vec<f64> = match entries.len() {
            0 => e[tangle.genesis().index()].clone(),
            k => (0..tangle.len())
                .map(|t| entries.iter().map(|x| e[x.index()][t]).sum::<f64>() / k as f64)
                .collect(),
        };
        let tables = [
            (walk.table(tangle, &w), &e[tangle.genesis().index()]),
            (
                WindowedWalk::new(walk, window).table(tangle, &w, &d),
                &windowed,
            ),
        ];
        for (table, want) in &tables {
            let got = exit_mass(table, tangle.len());
            for (i, (g, x)) in got.iter().zip(want.iter()).enumerate() {
                prop_assert!((g - x).abs() <= 1e-12, "tx {i}: table {g}, DP {x}");
            }
            for tip in &table.tips {
                prop_assert!(tangle.approvers(*tip).is_empty(), "{tip} is not a tip");
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn walk_table_exit_masses_match_a_descending_dp(
            script in prop::collection::vec((any::<u8>(), any::<u8>()), 0..120),
            window in 1u32..6,
            cut in any::<usize>(),
        ) {
            let t = scripted(&script);
            let view = TangleView::new(&t, 1 + cut % t.len());
            for alpha in ALPHAS {
                check_exit_masses(&t, alpha, window)?;
                check_exit_masses(&view, alpha, window)?;
            }
        }
    }

    /// `hits` out of `n` trials against `mass`, within 5σ of the binomial.
    fn assert_binomial(hits: &[u64], mass: &[f64], n: u64, what: &str) {
        for (i, (&k, &m)) in hits.iter().zip(mass).enumerate() {
            let (mean, sd) = (n as f64 * m, (n as f64 * m * (1.0 - m)).sqrt());
            assert!(
                (k as f64 - mean).abs() <= 5.0 * sd,
                "{what}: tx {i} hit {k} times, mass {m} expects {mean:.1} ± {sd:.1}"
            );
        }
    }

    #[test]
    fn walk_table_exit_mass_is_where_walks_and_draws_land() {
        const N: u64 = 200_000;
        let mut script_rng = rng(0x5EED);
        let script: Vec<(u8, u8)> = (0..60)
            .map(|_| (script_rng.random(), script_rng.random()))
            .collect();
        let t = scripted(&script);
        let w = cumulative_weights(&t);
        for (seed, alpha) in [(1, 0.05), (2, 0.5), (3, 8.0)] {
            let table = RandomWalk::new(alpha).table(&t, &w);
            let mass = exit_mass(&table, t.len());
            assert!(table.tips.len() >= 2, "α = {alpha}: too few reachable tips");
            let (mut walks, mut draws) = (vec![0u64; t.len()], vec![0u64; t.len()]);
            let mut r = rng(seed);
            for _ in 0..N {
                walks[table.walk(&t, t.genesis(), &mut r, |_| {}).index()] += 1;
                draws[table.draw_tip(&mut r).index()] += 1;
            }
            assert_binomial(&walks, &mass, N, &format!("walks, α = {alpha}"));
            assert_binomial(&draws, &mass, N, &format!("draws, α = {alpha}"));
        }
    }

    #[test]
    fn walk_table_exit_zero_mass_tip_is_never_drawn() {
        // At α = 1000 the genesis never steps to the light b: its exit mass
        // is exactly zero and it is not among the drawable tips.
        let (t, _, b, c) = forked();
        let table = RandomWalk::new(1000.0).table(&t, &cumulative_weights(&t));
        assert_eq!(
            (table.tips.as_slice(), table.cdf.as_slice()),
            (&[c][..], &[1.0][..])
        );
        let mut r = rng(10);
        assert!((0..1000).all(|_| table.draw_tip(&mut r) == c), "drew {b}");
        // A genesis-only snapshot draws the genesis, plain or windowed.
        let g = Tangle::new(0u8);
        let (w, d) = (cumulative_weights(&g), depths(&g));
        let windowed = WindowedWalk::new(RandomWalk::default(), 2).table(&g, &w, &d);
        for table in [RandomWalk::default().table(&g, &w), windowed] {
            assert_eq!(table.draw_tip(&mut r), g.genesis());
        }
    }

    #[test]
    fn walk_table_single_approver_chain_consumes_no_draw() {
        let mut t = Tangle::new(0u8);
        let mut prev = t.genesis();
        for i in 0..10 {
            prev = t.add(i, vec![prev]).unwrap();
        }
        let table = RandomWalk::default().table(&t, &cumulative_weights(&t));
        assert!(table.rows.is_empty(), "no transaction has two approvers");
        let (path, next) = table_path(&table, &t, t.genesis(), 5);
        assert_eq!(path, (0..=10).map(TxId).collect::<Vec<_>>());
        assert_eq!(
            next,
            rng(5).random::<u64>(),
            "the walk drew from its generator"
        );
        assert!(!table.is_windowed());
    }

    #[test]
    fn walk_table_tip_only_genesis() {
        let t = Tangle::new(0u8);
        let table = RandomWalk::default().table(&t, &cumulative_weights(&t));
        assert_eq!(table.offsets, vec![0, 0]);
        let (path, next) = table_path(&table, &t, t.genesis(), 6);
        assert_eq!(path, vec![t.genesis()]);
        assert_eq!(next, rng(6).random::<u64>());
    }

    #[test]
    fn walk_table_all_equal_weights() {
        // A star: every approver of the genesis weighs 1, at any α.
        let mut t = Tangle::new(0u8);
        for i in 0..5 {
            t.add(i, vec![t.genesis()]).unwrap();
        }
        for alpha in ALPHAS {
            let table = RandomWalk::new(alpha).table(&t, &cumulative_weights(&t));
            assert_eq!(table.offsets, vec![0, 6, 6, 6, 6, 6, 6]);
            assert_eq!(table.rows, vec![1.0, 1.0, 1.0, 1.0, 1.0, 5.0]);
        }
    }

    #[test]
    fn walk_table_alpha_1000_underflows_to_exact_zero() {
        let (t, a, _, c) = forked();
        let table = RandomWalk::new(1000.0).table(&t, &cumulative_weights(&t));
        // The genesis row: a (weight 2) is the max, b (weight 1) is
        // exp(-1000) = 0 exactly; stored unnormalised, summed left to right.
        assert_eq!(table.rows, vec![1.0, 0.0, 1.0]);
        for seed in 0..50 {
            // A zero weight is skipped: `r < 0.0` never holds.
            let (path, _) = table_path(&table, &t, t.genesis(), seed);
            assert_eq!(path, vec![t.genesis(), a, c]);
        }
    }

    #[test]
    fn walk_table_row_is_unnormalised_and_summed_left_to_right() {
        let eff = [3.0, 0.3, 1.7, 2.9, 0.1, 2.2];
        let approvers: Vec<TxId> = (0..6).map(TxId).collect();
        let mut row = Vec::new();
        Rows::new(0.7, |a: TxId| eff[a.index()]).row(TxId(0), &approvers, &mut row);
        let p: Vec<f64> = eff.iter().map(|e| (0.7 * (e - 3.0)).exp()).collect();
        let forward = p.iter().fold(0.0, |s, x| s + x);
        let backward = p.iter().rev().fold(0.0, |s, x| s + x);
        assert_ne!(forward, backward, "the sum must be order-sensitive");
        assert_eq!(row[..6], p[..]);
        assert_eq!(row[6], forward);
    }

    #[test]
    #[should_panic(expected = "walk alpha must be finite and non-negative")]
    fn walk_rejects_non_finite_alpha() {
        let (t, _, _, _) = forked();
        // A literal bypasses `new`: the check sits where rows are made.
        RandomWalk { alpha: f64::NAN }.select_tip_with_weights(
            &t,
            &cumulative_weights(&t),
            &mut rng(1),
        );
    }

    #[test]
    #[should_panic(expected = "walk alpha must be finite and non-negative")]
    fn walk_table_rejects_negative_alpha() {
        let (t, _, _, _) = forked();
        RandomWalk::new(-0.5).table(&t, &cumulative_weights(&t));
    }

    #[test]
    fn windowed_walk_huge_window_starts_at_the_genesis() {
        // `2 * window` used to overflow for window > u32::MAX / 2.
        let (t, _, b, c) = forked();
        let (w, d) = (cumulative_weights(&t), depths(&t));
        let ww = WindowedWalk::new(RandomWalk::default(), u32::MAX);
        let table = ww.table(&t, &w, &d);
        assert!(table.is_windowed() && window_entries(&d, u32::MAX).is_empty());
        let plain = ww.walk.table(&t, &w);
        assert_eq!((&table.tips, &table.cdf), (&plain.tips, &plain.cdf));
        let tip = table.draw_tip(&mut rng(4));
        assert!(tip == b || tip == c);
    }

    /// genesis -> {a, b}; c approves a; the a-branch is heavier.
    fn forked() -> (Tangle<u8>, TxId, TxId, TxId) {
        let mut t = Tangle::new(0u8);
        let a = t.add(1, vec![t.genesis()]).unwrap();
        let b = t.add(2, vec![t.genesis()]).unwrap();
        let c = t.add(3, vec![a]).unwrap();
        (t, a, b, c)
    }

    #[test]
    fn walk_reaches_a_tip() {
        let (t, _, b, c) = forked();
        let w = cumulative_weights(&t);
        let mut r = rng(1);
        for _ in 0..20 {
            let tip = RandomWalk::default().select_tip_with_weights(&t, &w, &mut r);
            assert!(tip == b || tip == c);
            assert!(t.is_tip(tip));
        }
    }

    #[test]
    fn high_alpha_is_greedy() {
        let (t, _, _b, c) = forked();
        let w = cumulative_weights(&t);
        let mut r = rng(2);
        let walk = RandomWalk::new(1000.0);
        for _ in 0..50 {
            // a has cumulative weight 2 (itself + c); b has 1 → always go a → c.
            assert_eq!(walk.select_tip_with_weights(&t, &w, &mut r), c);
        }
    }

    #[test]
    fn zero_alpha_is_roughly_uniform() {
        let (t, _, b, _c) = forked();
        let w = cumulative_weights(&t);
        let mut r = rng(3);
        let walk = RandomWalk::new(0.0);
        let mut hits_b = 0;
        let n = 2000;
        for _ in 0..n {
            if walk.select_tip_with_weights(&t, &w, &mut r) == b {
                hits_b += 1;
            }
        }
        let frac = hits_b as f64 / n as f64;
        assert!((0.42..0.58).contains(&frac), "b fraction {frac}");
    }

    #[test]
    fn bias_can_overcome_weight() {
        let (t, _, b, _c) = forked();
        let w = cumulative_weights(&t);
        // Heavily bias the light b-branch.
        let mut bias = vec![0.0f64; t.len()];
        bias[b.index()] = 100.0;
        let walk = BiasedRandomWalk::new(10.0, &bias);
        let mut r = rng(6);
        for _ in 0..30 {
            assert_eq!(walk.select_tip_with_weights(&t, &w, &mut r), b);
        }
    }

    #[test]
    fn windowed_walk_reaches_a_tip() {
        // Long chain with a fork at the end.
        let mut t = Tangle::new(0u8);
        let mut prev = t.genesis();
        for i in 0..20 {
            prev = t.add(i, vec![prev]).unwrap();
        }
        let x = t.add(99, vec![prev]).unwrap();
        let y = t.add(100, vec![prev]).unwrap();
        let mut r = rng(8);
        let table = WindowedWalk::new(RandomWalk::default(), 3).table(
            &t,
            &cumulative_weights(&t),
            &depths(&t),
        );
        for _ in 0..20 {
            let tip = table.draw_tip(&mut r);
            assert!(tip == x || tip == y, "windowed walk ended at {tip}");
        }
    }

    #[test]
    fn windowed_walk_falls_back_to_genesis_when_shallow() {
        let t = Tangle::new(0u8);
        let mut r = rng(9);
        let table = WindowedWalk::new(RandomWalk::default(), 5).table(
            &t,
            &cumulative_weights(&t),
            &depths(&t),
        );
        assert_eq!(table.draw_tip(&mut r), t.genesis());
    }

    #[test]
    fn depths_measure_longest_path_to_tip() {
        let (t, a, b, c) = forked();
        let d = crate::analysis::depths(&t);
        // tips c, b have depth 0; a has depth 1 (via c); genesis depth 2.
        assert_eq!(d[c.index()], 0);
        assert_eq!(d[b.index()], 0);
        assert_eq!(d[a.index()], 1);
        assert_eq!(d[t.genesis().index()], 2);
    }

    #[test]
    fn genesis_only_tangle_selects_genesis() {
        let t = Tangle::new(0u8);
        let mut r = rng(7);
        let tip =
            RandomWalk::default().select_tip_with_weights(&t, &cumulative_weights(&t), &mut r);
        assert_eq!(tip, t.genesis());
    }
}
